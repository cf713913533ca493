(* The real `rfid_clean serve` process and a single-threaded client that
   drives it over loopback: a select loop over non-blocking sockets
   that sends each request when it falls due and matches replies to
   requests in order, per connection. *)

open Util

(* ---------------- server process ---------------- *)

type server = { pid : int; stdout_fd : Unix.file_descr; err_path : string }

(* Every server not yet reaped, so an aborted run can still stop them. *)
let running : server list ref = ref []

let fail_with_log s msg =
  let tail =
    match read_file s.err_path with
    | exception Sys_error _ -> ""
    | log -> log
  in
  failwith (Printf.sprintf "%s\n--- server stderr ---\n%s" msg tail)

let spawn ~cli ~args ~err_path =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let s = { pid; stdout_fd = r; err_path } in
  running := s :: !running;
  s

(* Read the server's stdout until it announces its port. *)
let wait_port s ~deadline =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let marker = "# rfid-serve listening on " in
  let rec go () =
    let port =
      String.split_on_char '\n' (Buffer.contents acc)
      |> List.find_map (fun line ->
             if starts_with ~prefix:marker line then
               match String.rindex_opt line ':' with
               | Some i ->
                   int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
               | None -> None
             else None)
    in
    match port with
    | Some p -> p
    | None ->
        let left = deadline -. now () in
        if left <= 0. then fail_with_log s "server never announced a port";
        (match Unix.select [ s.stdout_fd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read s.stdout_fd buf 0 (Bytes.length buf) with
            | 0 -> fail_with_log s "server exited before announcing a port"
            | n -> Buffer.add_subbytes acc buf 0 n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

(* SIGTERM (the server drains and exits 0), consume the rest of its
   stdout so it never blocks on the pipe, and reap it. SIGKILL after
   [grace] seconds. Returns whether it exited cleanly. *)
let stop ?(grace = 30.) s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let buf = Bytes.create 4096 in
  let rec drain () =
    let left = deadline -. now () in
    if left <= 0. then (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ())
    else
      match Unix.select [ s.stdout_fd ] [] [] left with
      | [], _, _ -> drain ()
      | _ -> if Unix.read s.stdout_fd buf 0 (Bytes.length buf) > 0 then drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close s.stdout_fd;
  running := List.filter (fun r -> r != s) !running;
  match Unix.waitpid [] s.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (stop ~grace:5. s))
    !running

(* ---------------- connections ---------------- *)

type request = {
  line : string;
  due : float;
  multi : bool;  (* reply is "OK n" plus n body lines *)
  on_reply : string -> float -> unit;  (* full reply text, receive time *)
}

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  todo : request Queue.t;  (* not yet sent, in due order *)
  pending : request Queue.t;  (* sent, awaiting a reply *)
  partial : Buffer.t;  (* bytes of an unterminated reply line *)
  reply : Buffer.t;  (* lines of the multi-line reply in progress *)
  mutable body_left : int;
  mutable dead : bool;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  {
    fd;
    out = Buffer.create 65536;
    out_off = 0;
    todo = Queue.create ();
    pending = Queue.create ();
    partial = Buffer.create 256;
    reply = Buffer.create 256;
    body_left = 0;
    dead = false;
  }

(* The greeting is the one line the server sends unprompted; read it
   blocking, before the loop takes over. *)
let read_greeting c ~deadline =
  let b = Bytes.create 1 in
  let line = Buffer.create 64 in
  let rec go () =
    if now () > deadline then failwith "no greeting from the server";
    match Unix.read c.fd b 0 1 with
    | 0 -> failwith "server closed the connection before greeting"
    | _ ->
        Buffer.add_bytes line b;
        if Bytes.get b 0 <> '\n' then go ()
  in
  go ();
  Unix.set_nonblock c.fd;
  Buffer.contents line

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let push c r = Queue.push r c.todo

let flush c =
  let pending = Buffer.length c.out - c.out_off in
  if pending > 0 && not c.dead then
    match Unix.write_substring c.fd (Buffer.sub c.out c.out_off pending) 0 pending with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.dead <- true

let complete c text at =
  let r = Queue.pop c.pending in
  r.on_reply text at

let on_line c line at =
  if c.body_left > 0 then begin
    Buffer.add_string c.reply line;
    Buffer.add_char c.reply '\n';
    c.body_left <- c.body_left - 1;
    if c.body_left = 0 then complete c (Buffer.contents c.reply) at
  end
  else if Queue.is_empty c.pending then c.dead <- true (* unsolicited bytes *)
  else
    let r = Queue.peek c.pending in
    let n =
      if r.multi && starts_with ~prefix:"OK " line then
        int_of_string_opt (String.sub line 3 (String.length line - 3))
      else None
    in
    match n with
    | Some n when n > 0 ->
        Buffer.clear c.reply;
        Buffer.add_string c.reply line;
        Buffer.add_char c.reply '\n';
        c.body_left <- n
    | _ -> complete c (line ^ "\n") at

let read_buf = Bytes.create 65536

let read c =
  match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> c.dead <- true
  | n ->
      let at = now () in
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get read_buf i = '\n' then begin
          Buffer.add_subbytes c.partial read_buf !start (i - !start);
          let line = Buffer.contents c.partial in
          Buffer.clear c.partial;
          start := i + 1;
          if not c.dead then on_line c line at
        end
      done;
      Buffer.add_subbytes c.partial read_buf !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.dead <- true

let idle c = Queue.is_empty c.todo && Queue.is_empty c.pending

(* One send batch: the requests one loop pass put on one connection,
   in order — what the in-process replay feeds as a single chunk. *)
type sent = { batch : int; conn_id : int; line_sent : string }

(* Drive [conns] until every queue is empty (or [deadline] passes):
   each pass sends whatever is due, then sleeps in select until the
   next due time or a reply. [on_send] sees every request as it goes
   out with its batch number and lag behind its due time. Requests
   lost to a dead connection or the deadline are returned. *)
let drive ?(on_send = fun _ _ -> ()) ~deadline conns =
  let batch = ref 0 in
  let lost = ref 0 in
  let abandon c =
    lost := !lost + Queue.length c.todo + Queue.length c.pending;
    Queue.clear c.todo;
    Queue.clear c.pending
  in
  let live () = List.filter (fun (_, c) -> not (idle c)) conns in
  while live () <> [] do
    let t = now () in
    if t > deadline then List.iter (fun (_, c) -> abandon c) conns
    else begin
      List.iter (fun (_, c) -> if c.dead then abandon c) conns;
      let sent_any = ref false in
      List.iter
        (fun (id, c) ->
          while (not (Queue.is_empty c.todo)) && (Queue.peek c.todo).due <= t do
            let r = Queue.pop c.todo in
            Buffer.add_string c.out r.line;
            Buffer.add_char c.out '\n';
            Queue.push r c.pending;
            sent_any := true;
            on_send { batch = !batch; conn_id = id; line_sent = r.line } (t -. r.due)
          done;
          flush c)
        conns;
      if !sent_any then incr batch;
      let next_due =
        List.fold_left
          (fun acc (_, c) ->
            if Queue.is_empty c.todo then acc else Float.min acc (Queue.peek c.todo).due)
          infinity conns
      in
      let timeout =
        Float.min 0.25 (Float.max 0. (Float.min next_due deadline -. now ()))
      in
      let fds = List.filter_map (fun (_, c) -> if c.dead then None else Some c.fd) conns in
      let writers =
        List.filter_map
          (fun (_, c) ->
            if (not c.dead) && Buffer.length c.out > c.out_off then Some c.fd else None)
          conns
      in
      let readable, writable, _ =
        try Unix.select fds writers [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun (_, c) ->
          if List.memq c.fd writable then flush c;
          if List.memq c.fd readable then read c)
        conns
    end
  done;
  !lost
