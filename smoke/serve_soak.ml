(* Soak gate over the real `rfid_clean serve` binary: clients that
   misbehave must neither grow the server nor hold up anyone else.

   One server (`--port 0`, 200 objects) runs [warmup + rounds] rounds. Each
   round ingests a block of epochs (acknowledged and SYNCed), then runs
   four phases:

   1. slow reader — a client with a small fixed receive buffer
      pipelines whole-world RANGEs worth [slow_reply_bytes] of replies,
      reads nothing for [slow_stuck_s], then reads at a fixed pace.
      Every reply byte must arrive intact, and while the client is
      stuck the server's VmRSS may rise at most [slow_rss_slack_kb]:
      it answers only up to `Server.max_out_bytes` of unsent replies
      per connection, not the whole pipeline;
   2. half-open — 32 sockets connect and never send; a PING beside
      them is answered;
   3. churn — connect/close cycles past max_conns = 64: while 64 idle
      connections hold every slot each cycle must see a clean close,
      and after they go each cycle gets the greeting and a pong;
   4. PING train — PINGs sent open loop at 1 ms spacing by a client
      with default socket options (Nagle and delayed ACKs on), each
      timed from when it was due.

   After the warm-up rounds the server's VmRSS must stay flat (the peak
   over the last quarter of rounds within 10% of the peak over the
   first quarter), its open fds must return to their count before any client
   connected, and the PING-train p50 must be under 0.5 ms. Exits 1 on
   the first failure, leaving the server's output under the fixture
   directory. *)

open Serve_proc

let num_objects = 200
let seed = 42
let particles = 60

(* A small ring, so the EVENTS history fills in the first round and
   does not read as growth later. *)
let events_keep = 256

(* The first [warmup] rounds bring the GC heap to its working size and
   are not part of the flatness check; [rounds] more follow. *)
let warmup = 4
let rounds = 8
(* Under the default admission cap (1024), so one pipelined block is
   never refused with BUSY. *)
let epochs_per_round = 500
let slow_reply_bytes = 12 lsl 20
let slow_stuck_s = 0.5
let slow_rcvbuf = 65536
let slow_chunk = 32768
let slow_pace = 0.001

(* What a stuck client may cost: the kernel's send buffer (up to
   tcp_wmem's 4 MiB maximum) and the server's capped backlog are filled
   with replies, whose garbage the GC collects at its own pace. *)
let slow_rss_slack_kb = 16 * 1024
let half_open = 32
let max_conns = 64
let churn_per_round = 100
let pings_per_round = 200
let ping_spacing = 0.001
let ping_p50_limit_ms = 0.5
let rss_growth_limit = 1.10
let range = "RANGE -1000 -1000 1000 1000 0.001"

let fail fmt = Printf.ksprintf failwith fmt

(* ---------------- the server process, seen from /proc ------------- *)

let rss_kb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if starts_with ~prefix:"VmRSS:" l then
           Some (Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" Fun.id)
         else None)
  |> function
  | Some kb -> kb
  | None -> fail "no VmRSS in /proc/%d/status" pid

(* Highest VmRSS seen since the last [take_peak]. *)
let peak = ref 0

let sample_rss pid =
  let kb = rss_kb pid in
  peak := max !peak kb;
  kb

let take_peak () =
  let p = !peak in
  peak := 0;
  p

let open_fds pid = Array.length (Sys.readdir (Printf.sprintf "/proc/%d/fd" pid))

(* The server reaps a closed client on its next pass; give it a moment. *)
let wait_fds pid ~expected =
  let deadline = Unix.gettimeofday () +. 5. in
  while open_fds pid <> expected && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let n = open_fds pid in
  if n <> expected then fail "server holds %d fds, expected %d" n expected

(* ---------------- clients ---------------- *)

let socket_to ?rcvbuf port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Raw clients skip the greeting byte by byte, so that no channel
   buffers reply bytes they then read themselves. *)
let skip_greeting fd =
  let b = Bytes.create 1 in
  while Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n' do
    ()
  done

type client = { fd : Unix.file_descr; ic : in_channel }

(* Connect and read the greeting; [None] when the server refuses with
   a clean close. *)
let connect port =
  let fd = socket_to port in
  let ic = Unix.in_channel_of_descr fd in
  match input_line ic with
  | _greeting -> Some { fd; ic }
  | exception End_of_file ->
      close_quietly fd;
      None

let connect_exn port =
  match connect port with Some c -> c | None -> fail "connection refused"

let send fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let ping c =
  send c.fd "PING\n";
  let got = input_line c.ic in
  if got <> "OK pong" then fail "PING answered %S" got

let read_reply c =
  let header = input_line c.ic in
  let n = Scanf.sscanf header "OK %d" Fun.id in
  String.concat ""
    (List.map (fun l -> l ^ "\n") (header :: List.init n (fun _ -> input_line c.ic)))

(* ---------------- phases ---------------- *)

let put_lines () =
  trace_lines ~num_objects ~seed ~rounds:6 |> List.map (( ^ ) "PUT ") |> Array.of_list

(* One pipelined block closed by a SYNC; every PUT must be taken. *)
let ingest port lines =
  let c = connect_exn port in
  send c.fd (String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ "SYNC\n");
  List.iter
    (fun _ ->
      let r = input_line c.ic in
      if not (starts_with ~prefix:"OK " r) then fail "ingest answered %S" r)
    ("SYNC" :: lines);
  Unix.close c.fd;
  Printf.sprintf "%d epochs" (List.length lines)

let slow_reader ~pid ~port =
  let reference = connect_exn port in
  send reference.fd (range ^ "\n");
  let reply = read_reply reference in
  Unix.close reference.fd;
  let len = String.length reply in
  let count = (slow_reply_bytes + len - 1) / len in
  let requests = String.concat "" (List.init count (fun _ -> range ^ "\n")) in
  let rss_before = sample_rss pid in
  let fd = socket_to ~rcvbuf:slow_rcvbuf port in
  skip_greeting fd;
  Unix.set_nonblock fd;
  let sent = ref 0 in
  let send_more () =
    if !sent < String.length requests then
      try
        sent :=
          !sent
          + Unix.single_write_substring fd requests !sent (String.length requests - !sent)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let stuck_peak = ref rss_before in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < slow_stuck_s do
    send_more ();
    stuck_peak := max !stuck_peak (sample_rss pid);
    Unix.sleepf 0.01
  done;
  let grew = !stuck_peak - rss_before in
  if grew > slow_rss_slack_kb then
    fail "server VmRSS rose %d kB while the reader was stuck (slack %d kB)" grew
      slow_rss_slack_kb;
  let total = count * len in
  let received = ref 0 and reads = ref 0 in
  let buf = Bytes.create slow_chunk in
  let deadline = Unix.gettimeofday () +. 60. in
  while !received < total do
    if Unix.gettimeofday () > deadline then
      fail "%d of %d reply bytes after 60 s" !received total;
    send_more ();
    (match Unix.read fd buf 0 slow_chunk with
    | 0 -> fail "server closed the connection"
    | n ->
        for i = 0 to n - 1 do
          if Bytes.get buf i <> reply.[(!received + i) mod len] then
            fail "reply byte %d differs" (!received + i)
        done;
        received := !received + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    incr reads;
    if !reads mod 16 = 0 then ignore (sample_rss pid);
    Unix.sleepf slow_pace
  done;
  Unix.close fd;
  Printf.sprintf "%d replies, %.1f MB, VmRSS +%d kB while stuck" count
    (float_of_int total /. 1e6) grew

let half_open_phase ~pid ~port ~fd_base =
  let idle = List.init half_open (fun _ -> socket_to port) in
  let c = connect_exn port in
  ping c;
  wait_fds pid ~expected:(fd_base + half_open + 1);
  List.iter close_quietly idle;
  Unix.close c.fd;
  Printf.sprintf "%d idle sockets, PING answered beside them" half_open

let churn_phase ~pid ~port ~fd_base =
  wait_fds pid ~expected:fd_base;
  let held = List.init max_conns (fun _ -> connect_exn port) in
  let refused = churn_per_round / 2 in
  for _ = 1 to refused do
    match connect port with
    | None -> ()
    | Some c ->
        Unix.close c.fd;
        fail "connection %d accepted past max_conns" (max_conns + 1)
  done;
  List.iter (fun c -> Unix.close c.fd) held;
  wait_fds pid ~expected:fd_base;
  for _ = 1 to churn_per_round - refused do
    let c = connect_exn port in
    ping c;
    Unix.close c.fd
  done;
  Printf.sprintf "%d refused at the cap, %d served" refused (churn_per_round - refused)

(* Open loop: PING i is due at start + i * spacing whatever the replies
   do, and its latency runs from that due time. *)
let ping_train ~port =
  let fd = socket_to port in
  skip_greeting fd;
  let pong = "OK pong\n" in
  let plen = String.length pong in
  let n = pings_per_round in
  let start = Unix.gettimeofday () +. 0.01 in
  let due i = start +. (float_of_int i *. ping_spacing) in
  let latencies = Array.make n nan in
  let sent = ref 0 and received = ref 0 in
  let buf = Bytes.create 4096 in
  let deadline = due n +. 10. in
  while !received < n * plen do
    let now = Unix.gettimeofday () in
    if now > deadline then fail "%d of %d pongs" (!received / plen) n;
    if !sent < n && due !sent <= now then begin
      send fd "PING\n";
      incr sent
    end
    else
      let timeout = if !sent < n then due !sent -. now else 0.1 in
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> ()
      | _ ->
          let k = Unix.read fd buf 0 (Bytes.length buf) in
          if k = 0 then fail "server closed the connection";
          let at = Unix.gettimeofday () in
          for i = 0 to k - 1 do
            let pos = !received + i in
            if Bytes.get buf i <> pong.[pos mod plen] then
              fail "unexpected reply byte at %d" pos;
            if pos mod plen = plen - 1 then
              latencies.(pos / plen) <- at -. due (pos / plen)
          done;
          received := !received + k
  done;
  Unix.close fd;
  latencies

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Killed on a failure, so a failed soak leaves no server behind. *)
let server = ref None

let run ~cli ~dir =
  let lines = put_lines () in
  let total_rounds = warmup + rounds in
  if Array.length lines < total_rounds * epochs_per_round then
    fail "trace has %d epochs, need %d" (Array.length lines)
      (total_rounds * epochs_per_round);
  let pid =
    spawn ~cli ~dir ~name:"soak"
      [
        "serve"; "--port"; "0";
        "--objects"; string_of_int num_objects;
        "--seed"; string_of_int seed;
        "--particles"; string_of_int particles;
        "--events-keep"; string_of_int events_keep;
      ]
  in
  server := Some pid;
  let port = wait_port ~dir ~name:"soak" ~pid in
  let fd_base = open_fds pid in
  let round_peaks = Array.make total_rounds 0 in
  let pings = ref [] in
  for r = 0 to total_rounds - 1 do
    let steps =
      [
        ( "ingest",
          fun () ->
            ingest port
              (Array.to_list (Array.sub lines (r * epochs_per_round) epochs_per_round)) );
        ("slow reader", fun () -> slow_reader ~pid ~port);
        ("half-open", fun () -> half_open_phase ~pid ~port ~fd_base);
        ("churn", fun () -> churn_phase ~pid ~port ~fd_base);
        ( "ping train",
          fun () ->
            let l = ping_train ~port in
            pings := l :: !pings;
            Printf.sprintf "%d PINGs, p50 %.3f ms" (Array.length l) (median l *. 1e3) );
      ]
    in
    List.iter
      (fun (name, step) ->
        let what =
          try step () with Failure msg -> fail "round %d %s: %s" (r + 1) name msg
        in
        ignore (sample_rss pid);
        Printf.printf "serve-soak: round %d %s ok (%s)\n%!" (r + 1) name what)
      steps;
    round_peaks.(r) <- take_peak ()
  done;
  wait_fds pid ~expected:fd_base;
  Printf.printf "serve-soak: VmRSS peak per round (kB):%s\n%!"
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") round_peaks)));
  let quarter = rounds / 4 in
  let peak_of rs = Array.fold_left max 0 rs in
  let first = peak_of (Array.sub round_peaks warmup quarter) in
  let last = peak_of (Array.sub round_peaks (total_rounds - quarter) quarter) in
  if float_of_int last > rss_growth_limit *. float_of_int first then
    fail "VmRSS peak grew from %d kB (first quarter) to %d kB (last quarter)" first last;
  let p50 = median (Array.concat !pings) *. 1e3 in
  if p50 >= ping_p50_limit_ms then
    fail "PING-train p50 %.3f ms, limit %.1f ms" p50 ping_p50_limit_ms;
  server := None;
  terminate ~name:"soak" pid;
  Printf.printf
    "serve-soak: ok (%d epochs; VmRSS peak %d kB first quarter, %d kB last; fds back to \
     %d; PING p50 %.3f ms over %d)\n\
     %!"
    (total_rounds * epochs_per_round) first last fd_base p50
    (total_rounds * pings_per_round)

let () =
  let cli = cli_path () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rfid_serve_soak_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  match run ~cli ~dir with
  | () -> rm_rf dir
  | exception exn ->
      Option.iter
        (fun pid ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid))
        !server;
      Printf.printf "serve-soak: FAILED: %s (server output under %s)\n%!"
        (Printexc.to_string exn) dir;
      exit 1
