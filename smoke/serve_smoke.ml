(* Serve-smoke gate over the real `rfid_clean serve` binary.

   Three phases, each against a freshly spawned server on an ephemeral
   loopback port (`--port 0`, announced on stdout):

   1. consistency — feed ~100 epochs over the socket, then require
      every query reply (greeting, AT for all objects, RANGE, STATS,
      EVENTS after DRAIN) byte-identical to an in-process replay of
      the same PUT lines through the same {!Rfid_serve.Bootstrap}
      fixture, and `rfid_clean replay` of those lines to print the
      same events;
   2. backpressure — with `--admit-cap 2` and the tick PAUSEd, the
      third PUT must answer exactly `BUSY 2/2`, never drop silently;
   3. durability — run with WAL + checkpoints + durable events, SIGKILL
      the server at a known-durable point, restart `--recover`, feed
      the rest, and require the final events log byte-identical to an
      uninterrupted golden run's (no duplicated, no lost events).

   Exits 1 on the first failed phase, leaving that phase's directory in
   place for inspection. *)

open Serve_proc

let num_objects = 8
let seed = 42
let particles = 60
let checkpoint_every = 5

(* ---------------- tiny line-protocol client ---------------- *)

type client = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    fd;
  }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let read_greeting c = input_line c.ic ^ "\n"

(* One request, one full reply (body lines included for the commands
   whose `OK n` header announces n of them), as the exact byte string
   the server sent. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let header = input_line c.ic in
  let verb =
    match String.index_opt line ' ' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let body =
    match verb with
    | "RANGE" | "EVENTS" | "STATS" when starts_with ~prefix:"OK " header ->
        let n =
          int_of_string (String.sub header 3 (String.length header - 3))
        in
        List.init n (fun _ -> input_line c.ic)
    | _ -> []
  in
  String.concat "" (List.map (fun l -> l ^ "\n") (header :: body))

(* ---------------- shared trace ---------------- *)

(* The same observations go over the socket and through the in-process
   reference; the Bootstrap fixture pins everything else. *)
let make_put_lines () =
  trace_lines ~num_objects ~seed ~rounds:2 |> List.filteri (fun i _ -> i < 100)

let base_args =
  [
    "serve"; "--port"; "0";
    "--objects"; string_of_int num_objects;
    "--seed"; string_of_int seed;
    "--particles"; string_of_int particles;
  ]

let queries =
  List.init num_objects (fun k -> Printf.sprintf "AT %d" k)
  @ [
      "RANGE -1000 -1000 1000 1000 0.5";
      "RANGE 0 0 4 4";
      "STATS";
    ]

(* ---------------- phase 1: socket vs in-process, byte for byte ----- *)

(* `rfid_clean replay` of the PUT lines, written to [dir] as a stream
   file, with the server's engine flags; each CSV event rendered at the
   precision of an event line's location. *)
let replay_events ~cli ~dir ~put_lines =
  let file = Filename.concat dir "puts.csv" in
  let oc = open_out file in
  List.iter (fun l -> output_string oc (l ^ "\n")) put_lines;
  close_out oc;
  let pid =
    spawn ~cli ~dir ~name:"replay"
      [
        "replay"; "-i"; file;
        "-n"; string_of_int num_objects;
        "--seed"; string_of_int seed;
        "-k"; string_of_int particles;
      ]
  in
  wait_exit ~name:"replay" pid;
  String.split_on_char '\n' (read_file (Filename.concat dir "replay.out"))
  |> List.filter_map (fun l ->
         match
           Scanf.sscanf l "%d,%d,%f,%f,%f%!"
             (Printf.sprintf "t=%d obj=%d loc=(%.3f, %.3f, %.3f)")
         with
         | event -> Some event
         | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)

let phase_consistency ~cli ~dir ~put_lines =
  let pid = spawn ~cli ~dir ~name:"consistency" base_args in
  let port = wait_port ~dir ~name:"consistency" ~pid in
  let c = connect port in
  let live_greeting = read_greeting c in
  List.iter
    (fun l ->
      let r = request c ("PUT " ^ l) in
      if not (starts_with ~prefix:"OK " r) then
        failwith (Printf.sprintf "ingest refused: PUT %s -> %S" l r))
    put_lines;
  ignore (request c "SYNC");
  let live = List.map (fun q -> (q, request c q)) queries in
  ignore (request c "DRAIN");
  let live = live @ [ ("EVENTS 0", request c "EVENTS 0") ] in
  ignore (request c "QUIT");
  disconnect c;
  terminate ~name:"consistency" pid;
  (* In-process replay of the same lines through the same fixture. *)
  let boot =
    Rfid_serve.Bootstrap.make ~objects:num_objects ~seed ~particles ()
  in
  let core =
    Rfid_serve.Core.create
      ~guard:(Rfid_serve.Bootstrap.fresh_guard boot)
      ~engine:(Rfid_serve.Bootstrap.fresh_engine boot)
      ~num_objects ()
  in
  if live_greeting <> Rfid_serve.Core.greeting core then
    failwith
      (Printf.sprintf "greeting differs:\n  live: %S\n  ref:  %S" live_greeting
         (Rfid_serve.Core.greeting core));
  List.iter
    (fun l -> ignore (Rfid_serve.Core.handle_line core ("PUT " ^ l)))
    put_lines;
  ignore (Rfid_serve.Core.handle_line core "SYNC");
  let check (q, live_reply) =
    let expected, _ = Rfid_serve.Core.handle_line core q in
    if live_reply <> expected then
      failwith
        (Printf.sprintf "reply to %s differs:\n  live: %S\n  ref:  %S" q
           live_reply expected)
  in
  let before_drain, after_drain =
    List.partition (fun (q, _) -> q <> "EVENTS 0") live
  in
  List.iter check before_drain;
  ignore (Rfid_serve.Core.handle_line core "DRAIN");
  List.iter check after_drain;
  let replayed = replay_events ~cli ~dir ~put_lines in
  let reference = fst (Rfid_serve.Core.handle_line core "EVENTS 0") in
  let reference =
    (* Each event line up to its location, the part replay's CSV holds. *)
    String.split_on_char '\n' reference
    |> List.filter (fun l -> starts_with ~prefix:"t=" l)
    |> List.map (fun l -> String.sub l 0 (String.index l ')' + 1))
  in
  if replayed <> reference then
    failwith
      (Printf.sprintf "replay events differ from EVENTS 0:\n  replay: %s\n  ref:    %s"
         (String.concat " | " replayed) (String.concat " | " reference));
  Printf.printf
    "serve-smoke: consistency ok (%d epochs, %d queries bit-identical, %d replayed \
     events equal)\n%!"
    (List.length put_lines) (List.length live) (List.length replayed)

(* ---------------- phase 2: BUSY under forced overflow -------------- *)

let phase_backpressure ~cli ~dir ~put_lines =
  let pid =
    spawn ~cli ~dir ~name:"backpressure" (base_args @ [ "--admit-cap"; "2" ])
  in
  let port = wait_port ~dir ~name:"backpressure" ~pid in
  let c = connect port in
  ignore (read_greeting c);
  (* PAUSE gates the tick, so the queue cannot drain between PUTs and
     the third one must overflow deterministically. *)
  ignore (request c "PAUSE");
  let expect req expected =
    let got = request c req in
    if got <> expected then
      failwith (Printf.sprintf "%s -> %S, wanted %S" req got expected)
  in
  (match put_lines with
  | l1 :: l2 :: l3 :: _ ->
      expect ("PUT " ^ l1) "OK 1\n";
      expect ("PUT " ^ l2) "OK 2\n";
      expect ("PUT " ^ l3) "BUSY 2/2\n"
  | _ -> failwith "trace too short for the backpressure phase");
  ignore (request c "RESUME");
  ignore (request c "SYNC");
  ignore (request c "QUIT");
  disconnect c;
  terminate ~name:"backpressure" pid;
  Printf.printf "serve-smoke: backpressure ok (BUSY 2/2 observed, then drained)\n%!"

(* ---------------- phase 3: SIGKILL, --recover, no duplication ------ *)

let durable_args ~dir =
  let p = Filename.concat dir in
  [
    "--wal"; p "wal.log";
    "--checkpoint"; p "ck";
    "--checkpoint-every"; string_of_int checkpoint_every;
    "--events"; p "events.log";
  ]

let feed_and_sync c lines =
  List.iter (fun l -> ignore (request c ("PUT " ^ l))) lines;
  ignore (request c "SYNC")

let non_comment_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && not (starts_with ~prefix:"#" l))

let phase_durability ~cli ~dir ~put_lines =
  let n = List.length put_lines in
  (* Cut at a checkpoint boundary: after SYNC the cadence has just
     fired, so checkpoint + WAL + events are all durable and the kill
     point is deterministic. *)
  let k1 = (n / 2) - (n / 2 mod checkpoint_every) in
  if k1 < checkpoint_every then failwith "trace too short for the kill phase";
  let first = List.filteri (fun i _ -> i < k1) put_lines in
  let rest = List.filteri (fun i _ -> i >= k1) put_lines in
  (* Golden: one uninterrupted server over the whole trace. *)
  let golden_dir = Filename.concat dir "golden" in
  Unix.mkdir golden_dir 0o755;
  let pid =
    spawn ~cli ~dir:golden_dir ~name:"golden"
      (base_args @ durable_args ~dir:golden_dir)
  in
  let port = wait_port ~dir:golden_dir ~name:"golden" ~pid in
  let c = connect port in
  ignore (read_greeting c);
  feed_and_sync c put_lines;
  ignore (request c "DRAIN");
  ignore (request c "QUIT");
  disconnect c;
  terminate ~name:"golden" pid;
  let golden_events = read_file (Filename.concat golden_dir "events.log") in
  (* Victim: feed the first half, SIGKILL at the quiescent point. *)
  let victim_dir = Filename.concat dir "victim" in
  Unix.mkdir victim_dir 0o755;
  let pid =
    spawn ~cli ~dir:victim_dir ~name:"victim"
      (base_args @ durable_args ~dir:victim_dir)
  in
  let port = wait_port ~dir:victim_dir ~name:"victim" ~pid in
  let c = connect port in
  ignore (read_greeting c);
  feed_and_sync c first;
  Unix.kill pid Sys.sigkill;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> failwith "victim server did not die on SIGKILL");
  (* Recover in the same directory and finish the trace. *)
  let pid =
    spawn ~cli ~dir:victim_dir ~name:"recovered"
      (base_args @ durable_args ~dir:victim_dir @ [ "--recover" ])
  in
  let port = wait_port ~dir:victim_dir ~name:"recovered" ~pid in
  let c = connect port in
  ignore (read_greeting c);
  let stats = request c "STATS" in
  let resumed_epoch =
    String.split_on_char '\n' stats
    |> List.find_map (fun l ->
           if starts_with ~prefix:"epoch " l then
             int_of_string_opt (String.sub l 6 (String.length l - 6))
           else None)
  in
  if resumed_epoch = Some 0 || resumed_epoch = None then
    failwith
      (Printf.sprintf "recovered server did not resume (STATS: %S)" stats);
  feed_and_sync c rest;
  ignore (request c "DRAIN");
  ignore (request c "QUIT");
  disconnect c;
  terminate ~name:"recovered" pid;
  let recovered_events = read_file (Filename.concat victim_dir "events.log") in
  (* No duplication: every event line appears once... *)
  let lines = non_comment_lines recovered_events in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l ->
      if Hashtbl.mem tbl l then
        failwith (Printf.sprintf "duplicated event after recovery: %S" l);
      Hashtbl.add tbl l ())
    lines;
  (* ...and none lost: the whole log matches the uninterrupted run. *)
  if recovered_events <> golden_events then
    failwith
      (Printf.sprintf
         "recovered events.log differs from golden (see %s vs %s)" victim_dir
         golden_dir);
  Printf.printf
    "serve-smoke: durability ok (killed at epoch %d, recovered, %d event \
     lines bit-identical to golden)\n%!"
    k1 (List.length lines)

let () =
  let cli = cli_path () in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rfid_serve_smoke_%d" (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  let put_lines = make_put_lines () in
  Printf.printf "serve-smoke: %d observation epochs, fixtures under %s\n%!"
    (List.length put_lines) root;
  let phases =
    [
      ("consistency", phase_consistency);
      ("backpressure", phase_backpressure);
      ("durability", phase_durability);
    ]
  in
  List.iter
    (fun (name, phase) ->
      let dir = Filename.concat root name in
      Unix.mkdir dir 0o755;
      try phase ~cli ~dir ~put_lines
      with exn ->
        Printf.printf "serve-smoke: %s FAILED: %s (artifacts under %s)\n%!"
          name (Printexc.to_string exn) dir;
        exit 1)
    phases;
  rm_rf root;
  print_endline "serve-smoke: ok (3 phases)"
