module Engine = Rfid_core.Engine
module Event = Rfid_core.Event

type config = {
  checkpoint : string option;
  checkpoint_keep : int;
  wal : string option;
  wal_fsync_every : int;
  events : string option;
  recover : bool;
}

type t = {
  config : config;
  engine : Engine.t;
  wal_writer : Wal.writer option;
  mutable events_fd : Unix.file_descr option;
  replayed : Event.t list;
}

let engine t = t.engine
let replayed t = t.replayed

let write_events fd evs =
  Option.iter
    (fun fd ->
      List.iter (fun ev -> Durable.write fd (Format.asprintf "%a\n" Event.pp ev)) evs)
    fd

let log_events t evs = write_events t.events_fd evs
let flush_mark t = Option.iter (fun fd -> Durable.write fd "# flush\n") t.events_fd

let truncate_events_file ~path ~epoch =
  let data =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Some (really_input_string ic (in_channel_length ic)))
  in
  match data with
  | None -> ()
  | Some data ->
      let len = String.length data in
      let keep = ref 0 in
      (try
         let pos = ref 0 in
         while !pos < len do
           match String.index_from data !pos '\n' with
           | exception Not_found -> raise Exit (* torn last line *)
           | nl -> (
               let line = String.sub data !pos (nl - !pos) in
               (* "# flush" deliberately fails the epoch parse. *)
               match Scanf.sscanf line "t=%d" (fun e -> e) with
               | e when e <= epoch ->
                   keep := nl + 1;
                   pos := nl + 1
               | _ -> raise Exit
               | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                   raise Exit)
         done
       with Exit -> ());
      if !keep <> len then Unix.truncate path !keep

let event_of_log_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    let degraded =
      let suffix = " [degraded]" in
      let n = String.length line and k = String.length suffix in
      n >= k && String.sub line (n - k) k = suffix
    in
    let mk e o x y z sd =
      let cov =
        Option.map
          (fun s ->
            let v = s *. s in
            [| [| v; 0.; 0. |]; [| 0.; v; 0. |]; [| 0.; 0.; 0. |] |])
          sd
      in
      Event.make ~epoch:e ~obj:o ~loc:(Rfid_geom.Vec3.make x y z) ?cov ~degraded ()
    in
    let parse fmt k =
      match Scanf.sscanf line fmt k with
      | ev -> Some ev
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
    in
    match
      parse "t=%d obj=%d loc=(%f, %f, %f) (sd_xy=%f" (fun e o x y z s ->
          mk e o x y z (Some s))
    with
    | Some ev -> Some ev
    | None -> parse "t=%d obj=%d loc=(%f, %f, %f" (fun e o x y z -> mk e o x y z None)

let logged_events t =
  match t.config.events with
  | None -> []
  | Some path -> (
      match open_in_bin path with
      | exception Sys_error _ -> []
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let rec go acc =
                match input_line ic with
                | line -> go (match event_of_log_line line with Some ev -> ev :: acc | None -> acc)
                | exception End_of_file -> List.rev acc
              in
              go []))

let clear_checkpoints ~path ~keep =
  if keep > 1 then Checkpoint.clear_rotation ~dir:path
  else
    List.iter
      (fun p -> if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".tmp" ]

let load_engine ?resume ~fresh ~restore config =
  let source = if config.recover then config.checkpoint else resume in
  match source with
  | None ->
      Option.iter
        (fun path -> clear_checkpoints ~path ~keep:config.checkpoint_keep)
        config.checkpoint;
      fresh ()
  | Some path -> (
      (* load_auto takes a single file or walks a rotation directory
         past corrupted files. *)
      match Checkpoint.load_auto ~path with
      | Ok snapshot ->
          Format.eprintf "# resuming from %s at epoch %d@." path
            (Engine.snapshot_epoch snapshot);
          restore snapshot
      | Error msg when config.recover ->
          Format.eprintf "# no loadable checkpoint (%s); recovering from the start@." msg;
          fresh ()
      | Error msg -> failwith msg)

(* Read the WAL once and chop its torn tail so the writer can append. *)
let recover_wal path =
  let tail = Wal.read ~path in
  Option.iter
    (fun why ->
      Format.eprintf "# wal: %s; discarding %d byte(s) of torn tail@." why
        tail.Wal.discarded_bytes)
    tail.Wal.note;
  Wal.truncate ~path ~valid_bytes:tail.Wal.valid_bytes;
  tail.Wal.entries

let open_events ~append path =
  let flags = Unix.[ O_WRONLY; O_CREAT; (if append then O_APPEND else O_TRUNC) ] in
  match Unix.openfile path flags 0o644 with
  | fd -> fd
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let start ?resume ~fresh ~restore ~guard config =
  if config.recover && config.checkpoint = None then
    invalid_arg "Session.start: recover needs a checkpoint path";
  if config.checkpoint_keep < 1 then invalid_arg "Session.start: checkpoint_keep must be >= 1";
  let engine = load_engine ?resume ~fresh ~restore config in
  let restored_epoch = Engine.epoch engine in
  let wal_entries =
    if not config.recover then []
    else begin
      Option.iter (fun path -> truncate_events_file ~path ~epoch:restored_epoch) config.events;
      match config.wal with Some path -> recover_wal path | None -> []
    end
  in
  Ingest.advance_timeline guard restored_epoch;
  let events_fd = Option.map (open_events ~append:config.recover) config.events in
  let replayed =
    match Wal.replay ~guard ~engine wal_entries with
    | Error msg -> failwith msg
    | Ok evs ->
        let past = List.filter (fun e -> Wal.entry_epoch e > restored_epoch) wal_entries in
        if past <> [] then
          Format.eprintf "# wal: replayed %d entr(ies) to epoch %d@." (List.length past)
            (Engine.epoch engine);
        write_events events_fd evs;
        evs
  in
  let wal_writer =
    Option.map
      (fun path ->
        let w =
          Wal.create_writer ~append:config.recover ~fsync_every:config.wal_fsync_every
            ~path ()
        in
        Engine.set_journal engine
          (Some
             (function
             | Engine.Journal_step o -> Wal.append w (Wal.Step o)
             | Engine.Journal_degraded (e, tags) -> Wal.append w (Wal.Degraded (e, tags))));
        w)
      config.wal
  in
  { config; engine; wal_writer; events_fd; replayed }

let checkpoint t =
  Option.iter
    (fun path ->
      Option.iter Wal.sync t.wal_writer;
      Option.iter Durable.fsync t.events_fd;
      let snapshot = Engine.snapshot t.engine in
      let keep = t.config.checkpoint_keep in
      if keep > 1 then Checkpoint.save_rotating ~dir:path ~keep snapshot
      else Checkpoint.save ~path snapshot)
    t.config.checkpoint

let close t =
  Option.iter Wal.close t.wal_writer;
  Option.iter
    (fun fd ->
      t.events_fd <- None;
      (try Durable.fsync fd with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    t.events_fd;
  if t.config.wal <> None then
    Printf.eprintf "# durable-bytes=%d\n%!" (Durable.total_written ())
