(* What the smoke executables share: locate the `rfid_clean` binary
   next to them in the build tree, spawn `rfid_clean serve --port 0`
   with its output captured under a directory, learn the announced
   port, stop it; and the observation trace they feed it. *)

let cli_path () =
  let dir = Filename.dirname Sys.executable_name in
  let candidate = Filename.concat dir "../bin/rfid_clean.exe" in
  if Sys.file_exists candidate then candidate
  else (
    Printf.eprintf "%s: cannot find rfid_clean.exe near it\n"
      Sys.executable_name;
    exit 2)

(* Reads to end of file, so /proc files (which report no length) work. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let spawn ~cli ~dir ~name args =
  let open_log suffix =
    Unix.openfile
      (Filename.concat dir (name ^ suffix))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let out = open_log ".out" in
  let err = open_log ".err" in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  pid

(* Poll the server's stdout for the `# rfid-serve listening on H:P`
   announcement; fail fast if the process dies first. *)
let wait_port ~dir ~name ~pid =
  let path = Filename.concat dir (name ^ ".out") in
  let marker = "# rfid-serve listening on " in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, _ ->
        failwith
          (Printf.sprintf "server %s exited before announcing a port (see %s)"
             name dir));
    let data = try read_file path with Sys_error _ -> "" in
    let port =
      String.split_on_char '\n' data
      |> List.find_map (fun line ->
             if starts_with ~prefix:marker line then
               match String.rindex_opt line ':' with
               | Some i ->
                   int_of_string_opt
                     (String.sub line (i + 1) (String.length line - i - 1))
               | None -> None
             else None)
    in
    match port with
    | Some p -> p
    | None ->
        if Unix.gettimeofday () > deadline then
          failwith (Printf.sprintf "server %s never announced a port" name)
        else begin
          ignore (Unix.select [] [] [] 0.05);
          go ()
        end
  in
  go ()

let wait_exit ~name pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c ->
      failwith (Printf.sprintf "server %s exited %d" name c)
  | _, Unix.WSIGNALED s ->
      failwith (Printf.sprintf "server %s died on signal %d" name s)
  | _, Unix.WSTOPPED s ->
      failwith (Printf.sprintf "server %s stopped on signal %d" name s)

let terminate ~name pid =
  Unix.kill pid Sys.sigterm;
  wait_exit ~name pid


(* Trace_io lines of [rounds] scan passes over a [num_objects]-object
   warehouse, one per epoch. *)
let trace_lines ~num_objects ~seed ~rounds =
  let wh = Rfid_sim.Warehouse.layout ~num_objects () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds)
      ~config:
        (Rfid_sim.Trace_gen.default_config ~sensor:(Rfid_sim.Truth_sensor.cone ()) ())
      (Rfid_prob.Rng.create ~seed)
  in
  List.map Rfid_model.Trace_io.observation_to_line (Rfid_model.Trace.observations trace)
