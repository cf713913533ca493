(* Kill-anywhere recovery harness for both durable commands.

   Each trial runs the CLI with RFID_CRASH_AT_BYTE=k — the durable-write
   layer SIGKILLs the process partway through the write that crosses
   byte k, leaving a torn checkpoint, WAL record, or event line exactly
   as a real crash would — then recovers in the same directory with
   `--recover` and asserts the durable event log is byte-identical to
   an uninterrupted golden run's. Kill offsets are drawn uniformly over
   the golden run's total durable bytes, so mid-checkpoint, mid-WAL,
   and mid-event-line tears all get hit. The golden run itself is then
   recovered too, as if killed after its last durable byte.

   Two modes drive the same durability code (Rfid_robust.Session):
   - infer: the batch run is killed, then `infer --recover` finishes it;
   - serve: `serve --port 0` is fed PUT lines until it dies, restarted
     with `--recover`, fed the whole trace again (the ingest guard drops
     the epochs it already has), then DRAINed.

   Usage: crash_main [infer|serve] [TRIALS] [BASE_SEED]
   The mode defaults to infer. Every trial logs its seed and offset, so
   any failure replays with `crash_main MODE 1 <seed>`. Exits 1 if a
   trial failed, leaving the failed trials' directories in place. *)

let default_seed = 20260808

let cli_path () =
  let dir = Filename.dirname Sys.executable_name in
  let candidate = Filename.concat dir "../bin/rfid_clean.exe" in
  if Sys.file_exists candidate then candidate
  else (
    Printf.eprintf "crash_main: cannot find rfid_clean.exe near %s\n"
      Sys.executable_name;
    exit 2)

let durable_args ~dir =
  let p = Filename.concat dir in
  [
    "--objects"; "6"; "--particles"; "30"; "--seed"; "42"; "--variant"; "indexed";
    "--checkpoint"; p "ck"; "--checkpoint-keep"; "3"; "--checkpoint-every"; "7";
    "--wal"; p "wal.log"; "--wal-fsync-every"; "4";
    "--events"; p "events.log";
  ]

(* Spawn the CLI with stdout/stderr redirected to files in [dir]
   ([run.*] for the first run, [recover.*] for the recovery). *)
let spawn ~cli ~dir ~crash_at ~recover args =
  let args = Array.of_list ((cli :: args) @ if recover then [ "--recover" ] else []) in
  let env =
    let base =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not (String.length kv >= 19 && String.sub kv 0 19 = "RFID_CRASH_AT_BYTE="))
    in
    Array.of_list
      (match crash_at with
      | Some k -> Printf.sprintf "RFID_CRASH_AT_BYTE=%d" k :: base
      | None -> base)
  in
  let open_log ext =
    Unix.openfile
      (Filename.concat dir ((if recover then "recover" else "run") ^ ext))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let out = open_log ".out" in
  let err = open_log ".err" in
  let pid = Unix.create_process_env cli args env Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  pid

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The integer after [marker] on the first line of [path] starting with
   it. *)
let find_marker path marker =
  let m = String.length marker in
  String.split_on_char '\n' (try read_file path with Sys_error _ -> "")
  |> List.find_map (fun line ->
         if String.length line > m && String.sub line 0 m = marker then
           int_of_string_opt (String.sub line m (String.length line - m))
         else None)

(* ---------------- infer mode ---------------- *)

let run_infer ~cli ~dir ~crash_at ~recover =
  let args =
    [ "infer"; "--rounds"; "1"; "--fault-nan"; "0.05" ] @ durable_args ~dir
  in
  snd (Unix.waitpid [] (spawn ~cli ~dir ~crash_at ~recover args))

(* ---------------- serve mode ---------------- *)

let serve_lines =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:6 () in
     Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
       ~object_locs:wh.Rfid_sim.Warehouse.object_locs
       ~start:(Rfid_sim.Warehouse.reader_start wh)
       ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:2)
       ~config:
         (Rfid_sim.Trace_gen.default_config ~sensor:(Rfid_sim.Truth_sensor.cone ()) ())
       (Rfid_prob.Rng.create ~seed:42)
     |> Rfid_model.Trace.observations
     |> List.map Rfid_model.Trace_io.observation_to_line)

(* Poll the server's stdout for its port; [Error status] if it died
   first. *)
let wait_port ~dir ~recover ~pid =
  let out = Filename.concat dir (if recover then "recover.out" else "run.out") in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, status when p = pid -> Error status
    | _ -> (
        match find_marker out "# rfid-serve listening on 127.0.0.1:" with
        | Some port -> Ok port
        | None when Unix.gettimeofday () > deadline ->
            failwith ("server never announced a port in " ^ dir)
        | None ->
            ignore (Unix.select [] [] [] 0.02);
            go ())
  in
  go ()

(* Feed every PUT line, one reply each, then DRAIN and QUIT. A server
   killed mid-feed ends the conversation with EOF or EPIPE. *)
let converse port lines =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        ignore (input_line ic);
        List.iter
          (fun req ->
            output_string oc (req ^ "\n");
            flush oc;
            ignore (input_line ic))
          (List.map (( ^ ) "PUT ") lines @ [ "DRAIN"; "QUIT" ])
      with Unix.Unix_error _ | Sys_error _ | End_of_file -> ())

let run_serve ~cli ~dir ~crash_at ~recover =
  let pid =
    spawn ~cli ~dir ~crash_at ~recover
      ([ "serve"; "--port"; "0" ] @ durable_args ~dir)
  in
  match wait_port ~dir ~recover ~pid with
  | Error status -> status
  | Ok port ->
      converse port (Lazy.force serve_lines);
      (* A live server drains and exits 0 on SIGTERM; a killed one is a
         zombie the signal cannot touch. *)
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      snd (Unix.waitpid [] pid)

(* ---------------- trials ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let mode, rest =
    match Array.to_list Sys.argv with
    | _ :: (("infer" | "serve") as m) :: rest -> (m, rest)
    | _ :: rest -> ("infer", rest)
    | [] -> ("infer", [])
  in
  let run = if mode = "serve" then run_serve else run_infer in
  let trials, base_seed =
    match rest with
    | [] -> (50, default_seed)
    | [ n ] -> (int_of_string n, default_seed)
    | n :: s :: _ -> (int_of_string n, int_of_string s)
  in
  let cli = cli_path () in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rfid_crash_%s_%d" mode (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  (* Golden run: uninterrupted, same scenario. Its events.log is the
     reference and its durable-byte count bounds the kill offsets. *)
  let golden_dir = Filename.concat root "golden" in
  Unix.mkdir golden_dir 0o755;
  (match run ~cli ~dir:golden_dir ~crash_at:None ~recover:false with
  | Unix.WEXITED 0 -> ()
  | _ ->
      Printf.eprintf "crash_main: golden %s run failed (see %s)\n" mode golden_dir;
      exit 2);
  let total_bytes =
    match find_marker (Filename.concat golden_dir "run.err") "# durable-bytes=" with
    | Some n when n > 1 -> n
    | _ ->
        Printf.eprintf "crash_main: golden run did not report durable-bytes\n";
        exit 2
  in
  let golden_events = read_file (Filename.concat golden_dir "events.log") in
  Printf.printf "crash-test %s: %d trials, base seed %d, %d durable bytes to aim at\n%!"
    mode trials base_seed total_bytes;
  let failures = ref 0 in
  (* Kill after the last durable byte: a completed run recovered anyway
     must come back to the same log. *)
  (match run ~cli ~dir:golden_dir ~crash_at:None ~recover:true with
  | Unix.WEXITED 0 when read_file (Filename.concat golden_dir "events.log") = golden_events ->
      Printf.printf "recover after completion ok\n%!"
  | _ ->
      incr failures;
      Printf.printf "recover after completion FAIL (kept %s)\n%!" golden_dir);
  for t = 0 to trials - 1 do
    let seed = base_seed + t in
    let rng = Rfid_prob.Rng.create ~seed in
    let k = Rfid_prob.Rng.int rng (total_bytes - 1) in
    let dir = Filename.concat root (Printf.sprintf "trial_%03d" t) in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    let fail msg =
      incr failures;
      Printf.printf "trial %3d seed=%d kill@%-7d FAIL: %s (kept %s)\n%!" t seed k
        msg dir
    in
    (match run ~cli ~dir ~crash_at:(Some k) ~recover:false with
    | Unix.WSIGNALED s when s = Sys.sigkill -> (
        match run ~cli ~dir ~crash_at:None ~recover:true with
        | Unix.WEXITED 0 -> (
            match read_file (Filename.concat dir "events.log") with
            | events when events = golden_events ->
                Printf.printf "trial %3d seed=%d kill@%-7d ok\n%!" t seed k;
                rm_rf dir
            | _ -> fail "recovered events.log differs from golden"
            | exception Sys_error m -> fail ("no events.log after recovery: " ^ m))
        | Unix.WEXITED c -> fail (Printf.sprintf "recovery exited %d" c)
        | Unix.WSIGNALED s -> fail (Printf.sprintf "recovery died on signal %d" s)
        | Unix.WSTOPPED s -> fail (Printf.sprintf "recovery stopped on signal %d" s))
    | Unix.WEXITED c ->
        fail (Printf.sprintf "crash run exited normally (%d) instead of dying" c)
    | Unix.WSIGNALED s -> fail (Printf.sprintf "crash run died on signal %d, not SIGKILL" s)
    | Unix.WSTOPPED s -> fail (Printf.sprintf "crash run stopped on signal %d" s))
  done;
  if !failures = 0 then begin
    rm_rf root;
    Printf.printf "crash-test %s: %d/%d trials recovered bit-identically\n" mode trials
      trials
  end
  else begin
    Printf.printf "crash-test %s: %d of %d trials + 1 completed-run recovery FAILED \
                   (artifacts under %s)\n" mode !failures trials root;
    exit 1
  end
