(* Randomized robustness fuzzer: no corrupted input — textual or
   structural — may make an exception escape the lenient reader or the
   ingest-guarded engine.  Every iteration logs its seed before running,
   so any failure reproduces with `fuzz_main.exe <iters> <base-seed>`.

   Three layers per iteration:
     1. text fuzz   — serialize a clean stream, mutate the bytes
        (flips, truncation, garbage lines), parse leniently;
     2. stream fuzz — corrupt the observation stream itself
        (Faults.apply plus negative epochs and huge tag ids), then run
        it through the ingest guard into a real engine, alternating a
        guard that halts on an out-of-order epoch with one that drops
        it.  A halt may stop the run — as an [Error] value, never an
        exception;
     3. durability fuzz — corrupt a saved checkpoint and a write-ahead
        log on disk.  [Checkpoint.load] must answer [Error] or the
        bit-identical original snapshot (checksums make a silently
        different decode effectively impossible), and [Wal.read] must
        return a prefix of the records written.  Neither may raise;
     4. protocol fuzz — random, mutated, and hostile request frames
        through the stream server's state machine
        ([Rfid_serve.Core.handle_line]).  No frame may raise, and
        every non-empty frame must get a newline-terminated reply.

   After the iterations, one float-rendering pass (seeded by the base
   seed) renders random 64-bit patterns with [Rfid_serve.Framing.float_str]
   and requires the bytes of the libc chain it replaces. *)

open Rfid_model

let usage () =
  prerr_endline "usage: fuzz_main.exe [ITERATIONS] [BASE_SEED]";
  exit 2

let garbage_lines =
  [|
    "not,a,number,at,all";
    "1,2,3";
    "-5,0.0,0.0,0.0,obj:1";
    "3,nan,0.0,0.0,";
    "4,0.0,inf,0.0,obj:-2";
    "9999999999999999999999,0,0,0,";
    "5,0.0,0.0,0.0,obj:;shelf:x";
    ",,,,";
    "\xff\xfe\x00garbage";
  |]

let mutate_text rng text =
  let buf = Buffer.create (String.length text) in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         (* Per line: maybe drop, truncate, corrupt a byte, or inject a
            garbage line before it. *)
         if Rfid_prob.Rng.bernoulli rng ~p:0.05 then
           Buffer.add_string buf
             (garbage_lines.(Rfid_prob.Rng.int rng (Array.length garbage_lines)) ^ "\n");
         if not (Rfid_prob.Rng.bernoulli rng ~p:0.05) then begin
           let line =
             if Rfid_prob.Rng.bernoulli rng ~p:0.1 && String.length line > 2 then
               String.sub line 0 (Rfid_prob.Rng.int rng (String.length line))
             else if Rfid_prob.Rng.bernoulli rng ~p:0.1 && String.length line > 0 then begin
               let b = Bytes.of_string line in
               Bytes.set b
                 (Rfid_prob.Rng.int rng (Bytes.length b))
                 (Char.chr (Rfid_prob.Rng.int rng 256));
               Bytes.to_string b
             end
             else line
           in
           Buffer.add_string buf line;
           Buffer.add_string buf (if Rfid_prob.Rng.bernoulli rng ~p:0.2 then "\r\n" else "\n")
         end);
  Buffer.contents buf

let mutate_stream rng observations =
  List.map
    (fun (o : Types.observation) ->
      let o =
        if Rfid_prob.Rng.bernoulli rng ~p:0.03 then
          { o with Types.o_epoch = -1 - Rfid_prob.Rng.int rng 100 }
        else o
      in
      if Rfid_prob.Rng.bernoulli rng ~p:0.03 then
        {
          o with
          Types.o_read_tags =
            Types.Object_tag (Rfid_prob.Rng.int rng 1000 - 500)
            :: o.Types.o_read_tags;
        }
      else o)
    observations

(* Random on-disk corruption: byte flips, truncation, or appended
   garbage — at least one of them, often several. *)
let mutate_file rng path =
  let data =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let b = Buffer.create (String.length data) in
  let n = String.length data in
  if Rfid_prob.Rng.bernoulli rng ~p:0.3 && n > 1 then
    Buffer.add_string b (String.sub data 0 (Rfid_prob.Rng.int rng n))
  else Buffer.add_string b data;
  let bytes = Buffer.to_bytes b in
  let flips = 1 + Rfid_prob.Rng.int rng 8 in
  for _ = 1 to flips do
    if Bytes.length bytes > 0 then begin
      let i = Rfid_prob.Rng.int rng (Bytes.length bytes) in
      Bytes.set bytes i (Char.chr (Rfid_prob.Rng.int rng 256))
    end
  done;
  let oc = open_out_bin path in
  output_bytes oc bytes;
  if Rfid_prob.Rng.bernoulli rng ~p:0.3 then
    for _ = 1 to 1 + Rfid_prob.Rng.int rng 40 do
      output_char oc (Char.chr (Rfid_prob.Rng.int rng 256))
    done;
  close_out oc

let fuzz_durability rng engine clean =
  let snap = Rfid_core.Engine.snapshot engine in
  let reference = Rfid_robust.Codec.encode snap in
  let wal_entries =
    List.filteri (fun i _ -> i < 12) clean
    |> List.map (fun o -> Rfid_robust.Wal.Step o)
  in
  let ckpt = Filename.temp_file "rfid_fuzz_ckpt" ".bin" in
  let wal = Filename.temp_file "rfid_fuzz_wal" ".log" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ ckpt; wal ])
    (fun () ->
      Rfid_robust.Checkpoint.save ~path:ckpt snap;
      let w = Rfid_robust.Wal.create_writer ~path:wal () in
      List.iter (Rfid_robust.Wal.append w) wal_entries;
      Rfid_robust.Wal.close w;
      mutate_file rng ckpt;
      mutate_file rng wal;
      (match Rfid_robust.Checkpoint.load ~path:ckpt with
      | Error _ -> ()
      | Ok snap' ->
          if Rfid_robust.Codec.encode snap' <> reference then
            failwith "corrupt checkpoint decoded to a different snapshot");
      let tail = Rfid_robust.Wal.read ~path:wal in
      let rec is_prefix got expected =
        match (got, expected) with
        | [], _ -> true
        | g :: gs, e :: es -> g = e && is_prefix gs es
        | _ :: _, [] -> false
      in
      if not (is_prefix tail.Rfid_robust.Wal.entries wal_entries) then
        failwith "corrupt WAL read records that were never written")

(* Layer 4: the wire-facing protocol surface. Frames are drawn from
   valid commands, valid commands with mutated arguments, raw garbage,
   and stateful poison (PAUSE/DRAIN mid-stream) — the state machine
   must answer every one of them without an exception escaping, and
   its replies must stay framed. *)
let protocol_frames =
  [|
    "PING";
    "SYNC";
    "STATS";
    "PAUSE";
    "RESUME";
    "DRAIN";
    "AT 0";
    "AT -3";
    "AT 999999999999999999999999";
    "AT";
    "RANGE -5 -5 5 5";
    "RANGE 5 5 -5 -5";
    "RANGE nan nan nan nan";
    "RANGE 0 0 1 1 -7";
    "RANGE 0 0 1 1 0.5 extra";
    "EVENTS 0";
    "EVENTS -5";
    "EVENTS never";
    "PUT 1,0.0,-1.0,0.0,obj:3";
    "PUT 1,0.0,-1.0,0.0,obj:999";
    "PUT -9,0.0,0.0,0.0,";
    "PUT 2,nan,inf,0.0,obj:1;shelf:x";
    "PUT";
    "PUT ,,,,";
    "put 1,0.0,0.0,0.0,";
    "";
    " ";
    "\t";
    "QUIT extra words";
    "\xff\xfe\x00garbage";
  |]

let fuzz_protocol rng boot =
  let core =
    Rfid_serve.Core.create
      ~guard:(Rfid_serve.Bootstrap.fresh_guard boot)
      ~engine:(Rfid_serve.Bootstrap.fresh_engine boot)
      ~num_objects:(Rfid_serve.Bootstrap.num_objects boot)
      ~admit_cap:(1 + Rfid_prob.Rng.int rng 8)
      ~events_keep:(1 + Rfid_prob.Rng.int rng 8)
      ()
  in
  for _ = 1 to 200 do
    let frame =
      let base =
        protocol_frames.(Rfid_prob.Rng.int rng (Array.length protocol_frames))
      in
      if Rfid_prob.Rng.bernoulli rng ~p:0.3 && String.length base > 0 then begin
        (* Mutate one byte, as the text fuzzer does to file input. *)
        let b = Bytes.of_string base in
        Bytes.set b
          (Rfid_prob.Rng.int rng (Bytes.length b))
          (Char.chr (Rfid_prob.Rng.int rng 256));
        Bytes.to_string b
      end
      else if Rfid_prob.Rng.bernoulli rng ~p:0.02 then
        (* An over-long frame must get ERR 413, not OOM or a raise. *)
        base ^ String.make (Rfid_serve.Framing.max_line_bytes + 1) 'y'
      else base
    in
    let reply, _close = Rfid_serve.Core.handle_line core frame in
    if String.trim frame = "" then begin
      if reply <> "" then
        failwith (Printf.sprintf "empty frame got a reply: %S" reply)
    end
    else if reply = "" || reply.[String.length reply - 1] <> '\n' then
      failwith
        (Printf.sprintf "frame %S: reply not newline-terminated: %S" frame reply);
    ignore (Rfid_serve.Core.tick core ~max_steps:4)
  done

(* Float rendering: the reply rule as the libc chain it was first
   written as, the first of %.15g, %.16g, %.17g that reads back. *)
let printf_float_str v =
  if Float.is_nan v then "nan"
  else if v = Float.infinity then "inf"
  else if v = Float.neg_infinity then "-inf"
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p v in
      if float_of_string s = v then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None -> (
        match try_prec 16 with Some s -> s | None -> Printf.sprintf "%.17g" v)

let float_patterns = 200_000

(* Half the patterns are raw 64-bit draws (every exponent, NaN payloads
   and subnormals included); the other half get an exponent within
   2^±20, where reply coordinates and masses live. *)
let fuzz_float_rendering ~seed =
  Printf.printf "fuzz: float rendering, %d patterns, seed %d\n%!"
    float_patterns seed;
  let rng = Rfid_prob.Rng.create ~seed in
  for i = 1 to float_patterns do
    let bits = Rfid_prob.Rng.bits64 rng in
    let bits =
      if i land 1 = 0 then bits
      else
        let e = Int64.of_int (1003 + Rfid_prob.Rng.int rng 41) in
        Int64.logor
          (Int64.logand bits 0x800F_FFFF_FFFF_FFFFL)
          (Int64.shift_left e 52)
    in
    let v = Int64.float_of_bits bits in
    let got = Rfid_serve.Framing.float_str v and want = printf_float_str v in
    if got <> want then
      failwith
        (Printf.sprintf "float_str 0x%016Lx = %S, printf chain says %S" bits got
           want)
  done

let () =
  let iters, base_seed =
    match Array.to_list Sys.argv with
    | [ _ ] -> (25, 20260806)
    | [ _; n ] -> ( (try int_of_string n with _ -> usage ()), 20260806)
    | [ _; n; s ] -> (
        try (int_of_string n, int_of_string s) with _ -> usage ())
    | _ -> usage ()
  in
  Printf.printf "fuzz: %d iterations, base seed %d\n%!" iters base_seed;
  (* One small scenario reused across iterations; the corruption varies. *)
  let wh = Rfid_sim.Warehouse.layout ~num_objects:6 () in
  let sensor = Rfid_sim.Truth_sensor.cone () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
      (Rfid_prob.Rng.create ~seed:base_seed)
  in
  let clean = Trace.observations trace in
  let clean_text = Trace_io.observations_to_string clean in
  (* The serve fixture fits a sensor model — expensive, so built once;
     each iteration gets a fresh engine/guard/core from it. *)
  let boot =
    Rfid_serve.Bootstrap.make ~objects:6 ~seed:base_seed ~particles:30 ()
  in
  let failures = ref 0 in
  for iter = 0 to iters - 1 do
    let seed = base_seed + iter in
    Printf.printf "  iter %3d seed %d\n%!" iter seed;
    let rng = Rfid_prob.Rng.create ~seed in
    (try
       (* Layer 1: textual corruption through the lenient reader. *)
       let text = mutate_text rng clean_text in
       let parsed, errors = Trace_io.observations_of_string_lenient text in
       ignore (List.length parsed + List.length errors);
       (* Layer 2: structural corruption through guard + engine. *)
       let spec =
         Rfid_sim.Faults.make
           ~drop_prob:(Rfid_prob.Rng.uniform rng ~lo:0. ~hi:0.3)
           ~duplicate_prob:(Rfid_prob.Rng.uniform rng ~lo:0. ~hi:0.3)
           ~nan_fix_prob:(Rfid_prob.Rng.uniform rng ~lo:0. ~hi:0.3)
           ~spurious_tag_prob:(Rfid_prob.Rng.uniform rng ~lo:0. ~hi:0.3)
           ~reorder_prob:(Rfid_prob.Rng.uniform rng ~lo:0. ~hi:0.3)
           ?outage:
             (if Rfid_prob.Rng.bool rng then
                Some (Rfid_prob.Rng.int rng 50, Rfid_prob.Rng.int rng 60)
              else None)
           ()
       in
       let corrupted = mutate_stream rng (Rfid_sim.Faults.apply spec ~seed parsed) in
       let config =
         Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
           ~num_reader_particles:30 ~num_object_particles:30 ()
       in
       let engine =
         Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world
           ~params:Params.default ~config
           ~init_reader:(Rfid_sim.Warehouse.reader_start wh)
           ~seed ()
       in
       let guard =
         Rfid_robust.Ingest.create ~drop_out_of_order:(iter land 1 = 1)
           ~bounds:(World.bounding_box wh.Rfid_sim.Warehouse.world)
           ~max_object_id:6 ()
       in
       (match Rfid_robust.Ingest.run_engine guard engine corrupted with
       | Ok events -> ignore (List.length events)
       | Error (_fault, _msg) -> () (* an out-of-order halt is fine *));
       (* Layer 3: on-disk durability corruption. *)
       fuzz_durability rng engine clean;
       (* Layer 4: hostile request frames through the protocol core. *)
       fuzz_protocol rng boot
     with exn ->
       incr failures;
       Printf.printf "  FAILURE at seed %d: %s\n%!" seed (Printexc.to_string exn))
  done;
  let float_ok =
    try
      fuzz_float_rendering ~seed:base_seed;
      true
    with exn ->
      Printf.printf "  FAILURE in float rendering, seed %d: %s\n%!" base_seed
        (Printexc.to_string exn);
      false
  in
  if !failures > 0 then
    Printf.printf "fuzz: %d/%d iterations raised\n%!" !failures iters;
  if !failures > 0 || not float_ok then exit 1
  else Printf.printf "fuzz: ok (%d iterations, no escaping exceptions)\n%!" iters
