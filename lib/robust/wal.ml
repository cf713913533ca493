module Obs = Rfid_obs.Metrics
module Types = Rfid_model.Types

let sp_append = Obs.span "stage.wal_append"
let c_records = Obs.counter "wal.records"
let c_fsyncs = Obs.counter "wal.fsyncs"

let record_magic = "RWL1"

type entry =
  | Step of Types.observation
  | Degraded of Types.epoch * Types.tag list

let entry_epoch = function
  | Step o -> o.Types.o_epoch
  | Degraded (e, _) -> e

(* Record framing: magic, u32 body length, body, u32 Adler-32(body).
   Bodies use the same Codec.Prim wire primitives as checkpoints, so
   the two on-disk formats agree byte-for-byte on every scalar. *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let encode_entry e =
  let body = Buffer.create 64 in
  (match e with
  | Step o ->
      Codec.Prim.add_u8 body 0;
      Codec.Prim.add_int body o.Types.o_epoch;
      Codec.Prim.add_vec3 body o.Types.o_reported_loc;
      Codec.Prim.add_list Codec.Prim.add_tag body o.Types.o_read_tags
  | Degraded (epoch, tags) ->
      Codec.Prim.add_u8 body 1;
      Codec.Prim.add_int body epoch;
      Codec.Prim.add_list Codec.Prim.add_tag body tags);
  let body = Buffer.contents body in
  let rec_buf = Buffer.create (String.length body + 12) in
  Buffer.add_string rec_buf record_magic;
  add_u32 rec_buf (String.length body);
  Buffer.add_string rec_buf body;
  add_u32 rec_buf (Codec.adler32 body);
  Buffer.contents rec_buf

let decode_body body =
  let c = Codec.Prim.cursor body in
  let e =
    match Codec.Prim.r_u8 c with
    | 0 ->
        let o_epoch = Codec.Prim.r_int c in
        let o_reported_loc = Codec.Prim.r_vec3 c in
        let o_read_tags = Codec.Prim.r_list Codec.Prim.r_tag c in
        Step { Types.o_epoch; o_reported_loc; o_read_tags }
    | 1 ->
        let epoch = Codec.Prim.r_int c in
        let tags = Codec.Prim.r_list Codec.Prim.r_tag c in
        Degraded (epoch, tags)
    | k ->
        raise
          (Codec.Prim.Corrupt
             (Codec.Prim.pos c - 1, Printf.sprintf "unknown record kind %d" k))
  in
  if Codec.Prim.remaining c <> 0 then
    raise
      (Codec.Prim.Corrupt
         (Codec.Prim.pos c, "trailing bytes inside record body"));
  e

(* ------------------------------------------------------------------ *)
(* Writing *)

type writer = {
  fd : Unix.file_descr;
  fsync_every : int;
  mutable unsynced : int;
  mutable closed : bool;
}

let create_writer ?(append = false) ?(fsync_every = 8) ~path () =
  let flags =
    Unix.O_WRONLY :: Unix.O_CREAT
    :: (if append then [ Unix.O_APPEND ] else [ Unix.O_TRUNC ])
  in
  match Unix.openfile path flags 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  | fd -> { fd; fsync_every = max 1 fsync_every; unsynced = 0; closed = false }

let sync w =
  if (not w.closed) && w.unsynced > 0 then begin
    Durable.fsync w.fd;
    Obs.incr c_fsyncs 1;
    w.unsynced <- 0
  end

let append w e =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  let t0 = Obs.start sp_append in
  Durable.write w.fd (encode_entry e);
  Obs.incr c_records 1;
  w.unsynced <- w.unsynced + 1;
  if w.unsynced >= w.fsync_every then sync w;
  Obs.stop sp_append t0

let close w =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Reading *)

type tail = {
  entries : entry list;
  valid_bytes : int;
  discarded_bytes : int;
  note : string option;
}

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let u32_at data pos = Int32.to_int (String.get_int32_le data pos) land 0xffffffff

let read ~path =
  match read_file path with
  | None -> { entries = []; valid_bytes = 0; discarded_bytes = 0; note = None }
  | Some data ->
      let len = String.length data in
      let entries = ref [] in
      let pos = ref 0 in
      let note = ref None in
      let stop msg = note := Some msg in
      let continue () = !note = None && !pos < len in
      while continue () do
        let p = !pos in
        if len - p < 12 then
          stop (Printf.sprintf "torn record header at byte %d" p)
        else if String.sub data p 4 <> record_magic then
          stop (Printf.sprintf "bad record magic at byte %d" p)
        else begin
          let body_len = u32_at data (p + 4) in
          if body_len > len - p - 12 then
            stop
              (Printf.sprintf "torn record at byte %d (%d body bytes missing)"
                 p
                 (body_len - (len - p - 12)))
          else
            let body = String.sub data (p + 8) body_len in
            let stored = u32_at data (p + 8 + body_len) in
            if stored <> Codec.adler32 body then
              stop (Printf.sprintf "record checksum mismatch at byte %d" p)
            else
              match decode_body body with
              | e ->
                  entries := e :: !entries;
                  pos := p + 12 + body_len
              | exception Codec.Prim.Corrupt (at, msg) ->
                  stop
                    (Printf.sprintf "undecodable record at byte %d: %s (+%d)" p
                       msg at)
        end
      done;
      {
        entries = List.rev !entries;
        valid_bytes = !pos;
        discarded_bytes = len - !pos;
        note = !note;
      }

let truncate ~path ~valid_bytes =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  | st ->
      if st.Unix.st_size <> valid_bytes then (
        match Unix.truncate path valid_bytes with
        | () -> ()
        | exception Unix.Unix_error (e, _, _) ->
            raise (Sys_error (path ^ ": " ^ Unix.error_message e)))

(* ------------------------------------------------------------------ *)
(* Replay *)

let replay ~guard ~engine entries =
  let current = Rfid_core.Engine.epoch engine in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest when entry_epoch e <= current -> go acc rest
    | Step o :: rest -> (
        match Ingest.step_engine guard engine o with
        | Ok events -> go (List.rev_append events acc) rest
        | Error (fault, msg) ->
            Error
              (Printf.sprintf
                 "wal: replayed epoch %d halted the guard (%s: %s) — the log \
                  does not match this run's guard configuration"
                 o.Types.o_epoch (Ingest.fault_name fault) msg))
    | Degraded (epoch, tags) :: rest ->
        Ingest.advance_timeline guard epoch;
        let events = Rfid_core.Engine.step_degraded ~tags engine ~epoch in
        go (List.rev_append events acc) rest
  in
  go [] entries
