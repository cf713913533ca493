(* The portable checkpoint codec: canonical round-trips over real and
   randomized snapshots, the legacy-Marshal refusal path, and the
   promise that corrupted bytes always come back as [Error] — never a
   wrong snapshot, never an escaping exception. *)
open Rfid_model
module Codec = Rfid_robust.Codec
module Vec3 = Rfid_geom.Vec3
module FF = Rfid_core.Factored_filter
module E = Rfid_core.Engine

let scenario =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:4 () in
     let trace =
       Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
         ~object_locs:wh.Rfid_sim.Warehouse.object_locs
         ~start:(Rfid_sim.Warehouse.reader_start wh)
         ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
         ~config:(Rfid_sim.Trace_gen.default_config ())
         (Rfid_prob.Rng.create ~seed:37)
     in
     (wh, trace))

let config_for variant =
  Rfid_core.Config.create ~variant ~num_reader_particles:20 ~num_object_particles:30 ()

let engine_at_midstream ~variant =
  let wh, trace = Lazy.force scenario in
  let engine =
    E.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
      ~config:(config_for variant)
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:23 ()
  in
  let stream = Trace.observations trace in
  let n = List.length stream in
  let first, rest =
    List.partition (fun (o : Types.observation) -> o.Types.o_epoch < n / 2) stream
  in
  (* A couple of degraded epochs so those counters are non-trivial. *)
  List.iter
    (fun (o : Types.observation) ->
      if o.Types.o_epoch mod 10 = 3 then
        ignore (E.step_degraded engine ~epoch:o.Types.o_epoch)
      else ignore (E.step engine o))
    first;
  (wh, engine, rest)

let decode_ok what data =
  match Codec.decode data with
  | Ok s -> s
  | Error msg -> Alcotest.failf "%s: decode failed: %s" what msg

(* Canonical form: decode must invert encode exactly, byte for byte,
   when re-encoded — this also sidesteps NaN <> NaN in direct record
   comparison. *)
let check_roundtrip what snapshot =
  let data = Codec.encode snapshot in
  let back = decode_ok what data in
  Alcotest.(check bool)
    (what ^ ": re-encoded bytes identical")
    true
    (String.equal data (Codec.encode back))

let test_roundtrip_matrix () =
  List.iter
    (fun variant ->
      let what =
        match variant with
        | Rfid_core.Config.Factorized -> "factorized"
        | Rfid_core.Config.Factorized_indexed -> "indexed"
        | Rfid_core.Config.Factorized_compressed -> "compressed"
      in
      let wh, engine, rest = engine_at_midstream ~variant in
      let snapshot = E.snapshot engine in
      check_roundtrip what snapshot;
      (* The decoded snapshot must also be semantically whole: a
         restored engine continues bit-identically. *)
      let decoded = decode_ok what (Codec.encode snapshot) in
      let restored =
        E.restore ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
          ~config:(config_for variant) decoded
      in
      let continue engine = List.concat_map (E.step engine) rest @ E.flush engine in
      let a = continue engine and b = continue restored in
      Alcotest.(check int) (what ^ ": event count") (List.length a) (List.length b);
      List.iter2
        (fun (x : Rfid_core.Event.t) y ->
          if x <> y then
            Alcotest.failf "%s: decoded-restore diverged:@ %a@ vs@ %a" what
              Rfid_core.Event.pp x Rfid_core.Event.pp y)
        a b)
    [
      Rfid_core.Config.Factorized;
      Rfid_core.Config.Factorized_indexed;
      Rfid_core.Config.Factorized_compressed;
    ]

(* ------------------------------------------------------------------ *)
(* Randomized snapshots, adversarial floats included                   *)

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (6, float);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0. ]);
      ])

let vec3_gen =
  QCheck.Gen.map (fun (x, y, z) -> Vec3.make x y z)
    QCheck.Gen.(triple float_gen float_gen float_gen)

let reader_gen =
  QCheck.Gen.map2
    (fun loc heading -> Reader_state.make ~loc ~heading)
    vec3_gen float_gen

let small_list g = QCheck.Gen.(list_size (int_bound 5) g)
let small_array g = QCheck.Gen.(array_size (int_bound 5) g)

let box2_gen =
  (* Box2.make wants finite bounds with min <= max. *)
  let open QCheck.Gen in
  let coord = float_range (-100.) 100. in
  map
    (fun (a, b, c, d) ->
      Rfid_geom.Box2.make ~min_x:(Float.min a b) ~max_x:(Float.max a b)
        ~min_y:(Float.min c d) ~max_y:(Float.max c d))
    (quad coord coord coord coord)

let belief_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        map
          (fun parts -> FF.Snap_active parts)
          (small_array (triple vec3_gen (int_bound 20) float_gen)) );
      ( 1,
        map2
          (fun mean cov -> FF.Snap_compressed (mean, cov))
          (array_repeat 3 float_gen)
          (array_repeat 3 (array_repeat 3 float_gen)) );
    ]

let obj_gen =
  let open QCheck.Gen in
  let* so_id = int_bound 50 in
  let* so_belief = belief_gen in
  let* so_reader_gen = int_bound 100 in
  let* so_last_read = int_bound 1000 in
  let+ so_last_read_reader = vec3_gen in
  { FF.so_id; so_belief; so_reader_gen; so_last_read; so_last_read_reader }

let index_gen =
  let open QCheck.Gen in
  let* entries = small_list (pair box2_gen (small_list (int_bound 50))) in
  let* pending_objs = small_list (int_bound 50) in
  let* pending_box = option box2_gen in
  let+ last_insert = option vec3_gen in
  {
    FF.si_entries = entries;
    si_pending_objs = pending_objs;
    si_pending_box = pending_box;
    si_last_insert_loc = last_insert;
  }

let factored_snapshot_gen =
  let open QCheck.Gen in
  let* rng_state = ui64 in
  let* substream = ui64 in
  let* reader_gen_counter = int_bound 100 in
  let* readers = small_array (pair reader_gen float_gen) in
  let* objects = small_list obj_gen in
  let* index = option index_gen in
  let* compress_queue = small_list (pair (int_bound 50) (int_bound 1000)) in
  let* last_reported = option vec3_gen in
  let* epoch = int_bound 1000 in
  let* newly_seen = small_list (int_bound 50) in
  let* processed_last = int_bound 50 in
  let* cons_degraded = int_bound 5 in
  let+ degraded_total = int_bound 50 in
  {
    FF.fs_rng = rng_state;
    fs_substream = substream;
    fs_reader_gen = reader_gen_counter;
    fs_readers = readers;
    fs_objects = objects;
    fs_index = index;
    fs_compress_queue = compress_queue;
    fs_last_reported = last_reported;
    fs_epoch = epoch;
    fs_newly_seen = newly_seen;
    fs_processed_last = processed_last;
    fs_consecutive_degraded = cons_degraded;
    fs_degraded_total = degraded_total;
  }

let engine_snapshot_gen =
  let open QCheck.Gen in
  let* filter = factored_snapshot_gen in
  let* pending = small_list (pair (int_bound 1000) (int_bound 50)) in
  let* scheduled = small_list (int_bound 1000) in
  let* dr = int_bound 10 in
  let+ de = int_bound 10 in
  {
    E.es_filter = filter;
    es_pending = pending;
    es_scheduled = scheduled;
    es_degraded_run = dr;
    es_degraded_event_count = de;
  }

let snapshot_arb =
  QCheck.make ~print:(fun s -> Printf.sprintf "<snapshot epoch=%d>" (E.snapshot_epoch s))
    engine_snapshot_gen

let qcheck_roundtrip =
  Util.qcheck ~count:150 "codec round-trips randomized snapshots" snapshot_arb
    (fun snapshot ->
      let data = Codec.encode snapshot in
      match Codec.decode data with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok back -> String.equal data (Codec.encode back))

(* ------------------------------------------------------------------ *)
(* Legacy v1 (Marshal) checkpoints: the migration window has closed.
   A v1 file must be refused with a clean error naming the dropped
   format — never a Marshal decode attempt on untrusted bytes. *)

let write_v1_file ~path snapshot =
  let payload = Marshal.to_string (snapshot : E.snapshot) [] in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "rfid_streams-checkpoint v1\n";
      Printf.fprintf oc "epoch=%d bytes=%d adler32=%08x\n"
        (E.snapshot_epoch snapshot) (String.length payload)
        (Codec.adler32 payload);
      output_string oc payload)

let test_v1_rejected () =
  let _, engine, _ = engine_at_midstream ~variant:Rfid_core.Config.Factorized_indexed in
  let snapshot = E.snapshot engine in
  let path = Filename.temp_file "rfid_v1_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_v1_file ~path snapshot;
      match Rfid_robust.Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "legacy v1 checkpoint loaded; it must be refused"
      | Error msg ->
          let contains hay needle =
            let lh = String.length hay and ln = String.length needle in
            let rec go i =
              i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
            in
            go 0
          in
          if not (contains msg "v1") then
            Alcotest.failf "v1 refusal does not name the format: %s" msg;
          if not (contains msg path) then
            Alcotest.failf "v1 refusal does not name the file: %s" msg)

(* ------------------------------------------------------------------ *)
(* Corruption: every single-byte flip and every truncation must fail
   cleanly. Adler-32 detects all single-byte changes, and the framing
   covers every byte, so there is no position where a flip may pass. *)

let tiny_snapshot =
  lazy
    (let _, engine, _ = engine_at_midstream ~variant:Rfid_core.Config.Factorized_indexed in
     E.snapshot engine)

(* A stream stamped with an older codec version is refused by version,
   before any section is read: v1 carried two engine counters this
   layout no longer has, and v2 a snapshot-kind byte and the joint
   filter's object count. *)
let test_old_version_refused () =
  let data = Codec.encode (Lazy.force tiny_snapshot) in
  (* The version byte follows the 4-byte magic. *)
  let version = Char.code data.[4] in
  Alcotest.(check bool) "current version is past v2" true (version > 2);
  for old = 1 to version - 1 do
    let stamped = Bytes.of_string data in
    Bytes.set stamped 4 (Char.chr old);
    match Codec.decode (Bytes.to_string stamped) with
    | Ok _ -> Alcotest.failf "v%d codec stream decoded; it must be refused" old
    | Error msg ->
        Alcotest.(check string) "refusal names the version"
          (Printf.sprintf "codec: unsupported version %d (this build reads v%d)" old
             version)
          msg
  done

let test_every_flip_rejected () =
  let data = Codec.encode (Lazy.force tiny_snapshot) in
  let buf = Bytes.of_string data in
  for i = 0 to Bytes.length buf - 1 do
    let orig = Bytes.get buf i in
    Bytes.set buf i (Char.chr (Char.code orig lxor 0x41));
    (match Codec.decode (Bytes.to_string buf) with
    | Error msg ->
        if msg = "" then Alcotest.failf "flip at %d: empty error message" i
    | Ok _ -> Alcotest.failf "flip at byte %d accepted" i);
    Bytes.set buf i orig
  done

let test_every_truncation_rejected () =
  let data = Codec.encode (Lazy.force tiny_snapshot) in
  (* Stride 7 keeps the loop fast while still probing every region and
     alignment; 0-length and (len-1) are included explicitly. *)
  let try_len l =
    match Codec.decode (String.sub data 0 l) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" l
  in
  let n = String.length data in
  try_len 0;
  try_len (n - 1);
  let l = ref 1 in
  while !l < n do
    try_len !l;
    l := !l + 7
  done

let test_errors_name_sections () =
  let data = Codec.encode (Lazy.force tiny_snapshot) in
  (* Damage a byte inside the "objects" section body and check the
     error says so. The section name string appears in the stream right
     before its body. *)
  let find sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length data then
        Alcotest.failf "section %S not found in encoding" sub
      else if String.sub data i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  let pos = find "objects" + String.length "objects" + 9 in
  let buf = Bytes.of_string data in
  Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0xff));
  match Codec.decode (Bytes.to_string buf) with
  | Ok _ -> Alcotest.fail "damaged objects section accepted"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the section (%s)" msg)
        true
        (let rec contains i =
           i + 9 <= String.length msg
           && (String.sub msg i 9 = {|"objects"|} || contains (i + 1))
         in
         contains 0)

let suite =
  ( "codec",
    [
      Alcotest.test_case "round-trip + restore matrix" `Slow test_roundtrip_matrix;
      qcheck_roundtrip;
      Alcotest.test_case "legacy v1 checkpoint cleanly refused" `Quick
        test_v1_rejected;
      Alcotest.test_case "older codec version refused" `Quick test_old_version_refused;
      Alcotest.test_case "every byte flip rejected" `Slow test_every_flip_rejected;
      Alcotest.test_case "truncations rejected" `Quick test_every_truncation_rejected;
      Alcotest.test_case "errors name the failing section" `Quick
        test_errors_name_sections;
    ] )
