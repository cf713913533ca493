module Obs = Rfid_obs.Metrics

let magic = "rfid_streams-checkpoint"
let version = 2

let sp_encode = Obs.span "stage.checkpoint_encode"
let sp_decode = Obs.span "stage.checkpoint_decode"

(* File layout (header is plain text so `head -2 FILE` identifies a
   checkpoint; payload is binary):

     rfid_streams-checkpoint v<version>\n
     epoch=<E> bytes=<N> adler32=<08x>\n
     <N bytes of payload>

   The v2 payload is the portable Codec encoding of Engine.snapshot.
   The legacy v1 payload was Marshal output; its read path was kept for
   exactly one release of migration and is now gone — a v1 file gets a
   clean error naming the dropped format instead of a decode attempt. *)

let save ~path snapshot =
  let payload =
    let t0 = Obs.start sp_encode in
    let p = Codec.encode snapshot in
    Obs.stop sp_encode t0;
    p
  in
  let header =
    Printf.sprintf "%s v%d\nepoch=%d bytes=%d adler32=%08x\n" magic version
      (Rfid_core.Engine.snapshot_epoch snapshot)
      (String.length payload)
      (Codec.adler32 payload)
  in
  let tmp = path ^ ".tmp" in
  (match
     Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
   with
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (tmp ^ ": " ^ Unix.error_message e))
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Durable.write fd header;
          Durable.write fd payload;
          (* Data must be on disk before the rename publishes it, or a
             power cut could leave a fully-renamed but empty file. *)
          Durable.fsync fd));
  (* Write-then-rename so a crash mid-save never leaves a truncated
     file at [path]. *)
  Sys.rename tmp path;
  Durable.fsync_dir (Filename.dirname path)

let read_line_opt ic = try Some (input_line ic) with End_of_file -> None

let parse_header2 line =
  (* "epoch=<E> bytes=<N> adler32=<hex>" *)
  try Scanf.sscanf line "epoch=%d bytes=%d adler32=%x%!" (fun e n c -> Some (e, n, c))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let parse_version l1 =
  try Scanf.sscanf l1 "rfid_streams-checkpoint v%d%!" (fun v -> Some v)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let decode_v2 ~path payload =
  match Codec.decode payload with
  | Ok snapshot -> Ok snapshot
  | Error msg -> Error (path ^ ": " ^ msg)

let load ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match (read_line_opt ic, read_line_opt ic) with
          | Some l1, Some l2 when parse_version l1 <> None -> (
              let v = Option.get (parse_version l1) in
              if v = 1 then
                Error
                  (path
                 ^ ": legacy v1 (Marshal) checkpoints are no longer readable — \
                    the migration window closed; re-create the checkpoint by \
                    replaying the event stream (or a WAL recovery) with this \
                    build")
              else if v <> version then
                Error
                  (Printf.sprintf
                     "%s: unsupported checkpoint version v%d (this build reads \
                      v%d)"
                     path v version)
              else
                match parse_header2 l2 with
                | None -> Error (path ^ ": malformed checkpoint header")
                | Some (header_epoch, nbytes, expected_sum) -> (
                    match really_input_string ic nbytes with
                    | exception End_of_file ->
                        Error (path ^ ": truncated checkpoint payload")
                    | payload ->
                        let actual = Codec.adler32 payload in
                        if actual <> expected_sum then
                          Error
                            (Printf.sprintf
                               "%s: checkpoint checksum mismatch (stored %08x, \
                                computed %08x)"
                               path expected_sum actual)
                        else
                          let t0 = Obs.start sp_decode in
                          let r = decode_v2 ~path payload in
                          Obs.stop sp_decode t0;
                          Result.bind r (fun snapshot ->
                              let e =
                                Rfid_core.Engine.snapshot_epoch snapshot
                              in
                              if e <> header_epoch then
                                Error
                                  (Printf.sprintf
                                     "%s: header epoch %d disagrees with \
                                      payload epoch %d"
                                     path header_epoch e)
                              else Ok snapshot)))
          | Some l1, _
            when String.length l1 >= String.length magic
                 && String.sub l1 0 (String.length magic) = magic ->
              Error (path ^ ": malformed checkpoint version line")
          | _ -> Error (path ^ ": not a " ^ magic ^ " file"))

let load_exn ~path =
  match load ~path with Ok s -> s | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Rotation *)

let ckpt_name epoch = Printf.sprintf "ckpt-%010d.bin" epoch

let ckpt_epoch name =
  if
    String.length name = 19
    && String.sub name 0 5 = "ckpt-"
    && Filename.check_suffix name ".bin"
  then int_of_string_opt (String.sub name 5 10)
  else None

let list_ckpts dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             match ckpt_epoch n with Some e -> Some (e, n) | None -> None)
      |> List.sort (fun (a, _) (b, _) -> Int.compare b a)

let save_rotating ~dir ~keep snapshot =
  if keep < 1 then invalid_arg "Checkpoint.save_rotating: keep < 1";
  (match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (dir ^ ": " ^ Unix.error_message e)));
  let epoch = Rfid_core.Engine.snapshot_epoch snapshot in
  save ~path:(Filename.concat dir (ckpt_name epoch)) snapshot;
  (* Prune only after the new checkpoint is durable, so the set on disk
     never transiently shrinks below [keep] verified files. *)
  list_ckpts dir
  |> List.filteri (fun i _ -> i >= keep)
  |> List.iter (fun (_, n) ->
         try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())

let clear_rotation ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun n ->
          if ckpt_epoch n <> None || Filename.check_suffix n ".tmp" then
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        names

let load_newest ~dir =
  let rec try_all errs = function
    | [] ->
        Error
          (match errs with
          | [] -> dir ^ ": no checkpoint files (ckpt-*.bin) found"
          | _ ->
              Printf.sprintf "%s: no loadable checkpoint; tried:\n  %s" dir
                (String.concat "\n  " (List.rev errs)))
    | (_, name) :: rest -> (
        match load ~path:(Filename.concat dir name) with
        | Ok snapshot -> Ok snapshot
        | Error msg -> try_all (msg :: errs) rest)
  in
  try_all [] (list_ckpts dir)

let load_auto ~path =
  if Sys.file_exists path && Sys.is_directory path then load_newest ~dir:path
  else load ~path
