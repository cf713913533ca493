module Obs = Rfid_obs.Metrics

(* Accept cap: connections past it are accepted and closed at once. *)
let max_conns = 64

(* Longest select wait, in seconds, so a pass (and [on_pass]) runs at
   least this often; after a tick that left queued work behind the
   loop polls instead. *)
let tick_timeout = 0.05

(* Seconds of queued epochs a tick steps before the loop serves sockets
   again; read on CLOCK_MONOTONIC. *)
let tick_budget = 0.002

let sp_tick = Obs.span "stage.serve_tick"

(* Step queued epochs one at a time until [tick_budget] is spent: at
   least one, and the budget is only checked between epochs. Returns
   the number stepped; the span records only ticks that stepped. *)
let budgeted_tick core =
  let t0 = Obs.start sp_tick in
  let rec go steps =
    if Core.tick core ~max_steps:1 = 0 then steps
    else if Obs.now () -. t0 >= tick_budget then steps + 1
    else go (steps + 1)
  in
  let steps = go 0 in
  if steps > 0 then Obs.stop sp_tick t0;
  steps

let max_out_bytes = 1 lsl 20

type conn = {
  fd : Unix.file_descr;
  framing : Framing.buffer;
  held : Framing.event Queue.t;  (* framed, not yet dispatched *)
  mutable out : Bytes.t;
      (* bytes [out_off, out_len) are unsent; grown by [enqueue] and kept
         for the connection's life, under 4 * (max_out_bytes + a reply) *)
  mutable out_off : int;
  mutable out_len : int;
  mutable closing : bool;  (* close once [out] drains (QUIT) *)
}

let pending_out conn = conn.out_len - conn.out_off

(* Append a reply. When it does not fit behind the unsent bytes, slide
   them to the front if the sent prefix is at least as long (so each
   byte moves O(1) times however slowly the peer reads), else double. *)
let enqueue conn reply =
  let n = String.length reply in
  if conn.out_len + n > Bytes.length conn.out then begin
    let pending = pending_out conn in
    let cap = ref (Bytes.length conn.out) in
    if conn.out_off < pending then cap := 2 * !cap;
    while pending + n > !cap do cap := 2 * !cap done;
    let dst = if !cap = Bytes.length conn.out then conn.out else Bytes.create !cap in
    Bytes.blit conn.out conn.out_off dst 0 pending;
    conn.out <- dst;
    conn.out_off <- 0;
    conn.out_len <- pending
  end;
  Bytes.blit_string reply 0 conn.out conn.out_len n;
  conn.out_len <- conn.out_len + n

(* [Unix.single_write] passes at most this many bytes per call, through
   its own buffer: no copy of the backlog is made on the OCaml side. *)
let write_window = 65536

(* Non-blocking writes of whatever the kernel will take. Returns [false]
   when the connection is dead (EPIPE/reset). *)
let rec flush_conn conn =
  let len = min (pending_out conn) write_window in
  if len = 0 then true
  else
    match Unix.single_write conn.fd conn.out conn.out_off len with
    | n ->
        conn.out_off <- conn.out_off + n;
        if pending_out conn = 0 then begin
          conn.out_off <- 0;
          conn.out_len <- 0
        end;
        n < len || flush_conn conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        true
    | exception Unix.Unix_error (_, _, _) -> false

(* Answer held lines in wire order while the backlog is within
   [max_out_bytes]; the last one answered may overshoot it by one reply. *)
let dispatch core conn =
  while pending_out conn <= max_out_bytes && not (Queue.is_empty conn.held) do
    match Queue.pop conn.held with
    | Framing.Overflow -> enqueue conn "ERR 413 line too long\n"
    | Framing.Line line ->
        let reply, close = Core.handle_line core line in
        enqueue conn reply;
        if close then conn.closing <- true
  done

(* Dispatch and write until the held lines are answered or the kernel
   stops taking bytes with the backlog over the cap. Replies of one read
   chunk leave in one write. Returns [false] when the connection is
   dead. *)
let rec pump core conn =
  dispatch core conn;
  flush_conn conn
  && (Queue.is_empty conn.held
     || pending_out conn > max_out_bytes
     || pump core conn)

let read_chunk_size = 8192

let stop_requested = ref false

let install_signal_handlers () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let latch = Sys.Signal_handle (fun _ -> stop_requested := true) in
  List.iter
    (fun s -> try Sys.set_signal s latch with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let run ?(on_listening = fun ~host:_ ~port:_ -> ())
    ?(on_pass = fun ~out_backlog:_ -> ()) ?(should_stop = fun () -> false) ~host
    ~port core =
  stop_requested := false;
  install_signal_handlers ();
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let () =
    try
      Unix.bind listen_fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen listen_fd 16;
      Unix.set_nonblock listen_fd
    with e ->
      Unix.close listen_fd;
      raise e
  in
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  on_listening ~host ~port:bound_port;
  let conns : conn list ref = ref [] in
  let close_conn conn =
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c -> c != conn) !conns
  in
  let accept_new () =
    let continue = ref true in
    while !continue do
      match Unix.accept listen_fd with
      | fd, _ ->
          if List.length !conns >= max_conns then
            (* Refusing at the accept keeps the fd set bounded; the
               client sees a clean close, not a hung connect. *)
            Unix.close fd
          else begin
            Unix.set_nonblock fd;
            (* Replies are whole lines written once per read chunk, so
               Nagle could only hold them back for the peer's ACK. *)
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            let conn =
              {
                fd;
                framing = Framing.create_buffer ();
                held = Queue.create ();
                out = Bytes.create 256;
                out_off = 0;
                out_len = 0;
                closing = false;
              }
            in
            enqueue conn (Core.greeting core);
            conns := conn :: !conns;
            if not (flush_conn conn) then close_conn conn
          end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          continue := false
      | exception Unix.Unix_error (_, _, _) -> continue := false
    done
  in
  let buf = Bytes.create read_chunk_size in
  let handle_read conn =
    match Unix.read conn.fd buf 0 read_chunk_size with
    | 0 -> close_conn conn
    | n ->
        List.iter
          (fun ev -> Queue.add ev conn.held)
          (Framing.feed conn.framing (Bytes.sub_string buf 0 n));
        if not (pump core conn) then close_conn conn
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error (_, _, _) -> close_conn conn
  in
  (* Set when the last tick stepped work and left more queued: the next
     select only polls, so a backlog drains without idle waits. *)
  let backlogged = ref false in
  let loop_pass () =
    (* A connection whose backlog is over the cap is not read: its
       requests wait in the kernel until the peer reads its replies. *)
    let readers =
      listen_fd
      :: List.filter_map
           (fun c -> if pending_out c <= max_out_bytes then Some c.fd else None)
           !conns
    in
    let writers =
      List.filter_map
        (fun c -> if pending_out c > 0 then Some c.fd else None)
        !conns
    in
    let timeout = if !backlogged then 0. else tick_timeout in
    let readable, writable, _ =
      try Unix.select readers writers [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem listen_fd readable then accept_new ();
    List.iter
      (fun conn -> if List.mem conn.fd readable then handle_read conn)
      !conns;
    List.iter
      (fun conn ->
        if List.mem conn.fd writable then
          if not (pump core conn) then close_conn conn)
      !conns;
    (* Closing connections part after their goodbye is out the door. *)
    List.iter
      (fun conn -> if conn.closing && pending_out conn = 0 then close_conn conn)
      !conns;
    let steps = budgeted_tick core in
    backlogged := steps > 0 && Core.queue_depth core > 0;
    on_pass
      ~out_backlog:
        (List.fold_left (fun m c -> max m (pending_out c)) 0 !conns)
  in
  while not (!stop_requested || should_stop ()) do
    loop_pass ()
  done;
  (* Graceful drain: finish queued work, flush the engine, checkpoint
     (via Core's hooks), then best-effort flush of pending replies. *)
  Core.drain core;
  List.iter (fun conn -> ignore (flush_conn conn)) !conns;
  List.iter (fun conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ()) !conns;
  conns := [];
  Unix.close listen_fd
