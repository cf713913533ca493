(* The write-ahead log: record round-trips, torn-tail handling, and the
   headline recovery property — checkpoint + WAL replay alone (no
   re-fed input) reproduces the uninterrupted run bit-identically. *)
open Rfid_model
module Wal = Rfid_robust.Wal
module Ingest = Rfid_robust.Ingest

let v = Util.vec3

let obs e loc tags = { Types.o_epoch = e; o_reported_loc = loc; o_read_tags = tags }

let sample_entries =
  [
    Wal.Step (obs 0 (v 1. 2. 0.) [ Types.Object_tag 3; Types.Shelf_tag 1 ]);
    Wal.Degraded (1, [ Types.Shelf_tag 2 ]);
    Wal.Step (obs 2 (v 1.5 2.5 0.1) []);
    Wal.Degraded (3, []);
    Wal.Step (obs 7 (v (-4.) 0.25 0.) [ Types.Object_tag 0 ]);
  ]

let with_tmp f =
  let path = Filename.temp_file "rfid_wal" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_all ?fsync_every path entries =
  let w = Wal.create_writer ?fsync_every ~path () in
  List.iter (Wal.append w) entries;
  Wal.close w

let check_entries what expected (tail : Wal.tail) =
  Alcotest.(check int) (what ^ ": entry count") (List.length expected)
    (List.length tail.Wal.entries);
  List.iter2
    (fun a b ->
      if a <> b then
        Alcotest.failf "%s: entry mismatch (epoch %d vs %d)" what
          (Wal.entry_epoch a) (Wal.entry_epoch b))
    expected tail.Wal.entries

let test_roundtrip () =
  with_tmp (fun path ->
      write_all path sample_entries;
      let tail = Wal.read ~path in
      check_entries "round-trip" sample_entries tail;
      Alcotest.(check int) "nothing discarded" 0 tail.Wal.discarded_bytes;
      Alcotest.(check bool) "no note" true (tail.Wal.note = None))

let test_missing_file () =
  let tail = Wal.read ~path:"/nonexistent/rfid-wal.log" in
  check_entries "missing file" [] tail;
  Alcotest.(check int) "no valid bytes" 0 tail.Wal.valid_bytes

let file_contents path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let overwrite path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_torn_tail () =
  with_tmp (fun path ->
      write_all path sample_entries;
      let whole = file_contents path in
      let clean = Wal.read ~path in
      (* Chop mid-way into the final record: the first four survive. *)
      overwrite path (String.sub whole 0 (String.length whole - 5));
      let tail = Wal.read ~path in
      check_entries "torn tail" (List.filteri (fun i _ -> i < 4) sample_entries) tail;
      Alcotest.(check bool) "tear noted" true (tail.Wal.note <> None);
      Alcotest.(check bool) "discard counted" true (tail.Wal.discarded_bytes > 0);
      (* Repair: truncate to the valid prefix, reopen for append, and
         the log is whole again. *)
      Wal.truncate ~path ~valid_bytes:tail.Wal.valid_bytes;
      let w = Wal.create_writer ~append:true ~path () in
      Wal.append w (List.nth sample_entries 4);
      Wal.close w;
      check_entries "after repair + append" sample_entries (Wal.read ~path);
      ignore clean)

let test_corrupt_middle () =
  with_tmp (fun path ->
      write_all path sample_entries;
      let whole = file_contents path in
      (* Flip a byte inside the second record's body: reading stops at
         record 2 and keeps only record 1 — a corrupt middle must not
         let later records (silently reordered history) through. *)
      let second_start =
        (* first record: magic(4) + len(4) + body + sum(4) *)
        let body_len =
          Int32.to_int (String.get_int32_le whole 4) land 0xffffffff
        in
        12 + body_len
      in
      let buf = Bytes.of_string whole in
      let p = second_start + 9 in
      Bytes.set buf p (Char.chr (Char.code (Bytes.get buf p) lxor 0xff));
      overwrite path (Bytes.to_string buf);
      let tail = Wal.read ~path in
      check_entries "corrupt middle" [ List.hd sample_entries ] tail;
      Alcotest.(check int) "valid prefix is record 1" second_start tail.Wal.valid_bytes;
      Alcotest.(check bool) "note present" true (tail.Wal.note <> None))

let test_garbage_file () =
  with_tmp (fun path ->
      overwrite path "this is not a WAL at all, not even close\n";
      let tail = Wal.read ~path in
      check_entries "garbage" [] tail;
      Alcotest.(check int) "no valid bytes" 0 tail.Wal.valid_bytes;
      Alcotest.(check bool) "note present" true (tail.Wal.note <> None))

(* ------------------------------------------------------------------ *)
(* Recovery equivalence: checkpoint + WAL tail, nothing else.          *)

let test_checkpoint_plus_wal_recovery () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:4 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:53)
  in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
      ~num_reader_particles:25 ~num_object_particles:30 ()
  in
  let make () =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:Params.default ~config
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:17 ()
  in
  let stream = Trace.observations trace in
  let n = List.length stream in
  let cut = n / 2 in
  with_tmp (fun wal_path ->
      (* Original run: journal every admitted epoch, checkpoint (in
         memory) at the cut, "crash" at 3/4 — the tail past the crash
         point is never seen again. *)
      let engine = make () in
      let guard = Ingest.create ~max_object_id:4 () in
      let writer = Wal.create_writer ~fsync_every:3 ~path:wal_path () in
      Rfid_core.Engine.set_journal engine
        (Some
           (fun entry ->
             Wal.append writer
               (match entry with
               | Rfid_core.Engine.Journal_step o -> Wal.Step o
               | Rfid_core.Engine.Journal_degraded (e, tags) -> Wal.Degraded (e, tags))));
      let snapshot = ref None in
      let original_events = ref [] in
      List.iter
        (fun (o : Types.observation) ->
          if o.Types.o_epoch < cut * 3 / 2 then begin
            (* Degrade a few epochs so Degraded WAL entries are exercised. *)
            (if o.Types.o_epoch mod 11 = 5 then
               match
                 Ingest.step_engine guard engine
                   { o with Types.o_reported_loc = Util.vec3 Float.nan 0. 0. }
               with
               | Ok evs -> original_events := List.rev_append evs !original_events
               | Error (_, m) -> Alcotest.fail m
             else
               match Ingest.step_engine guard engine o with
               | Ok evs -> original_events := List.rev_append evs !original_events
               | Error (_, m) -> Alcotest.fail m);
            if o.Types.o_epoch = cut then
              snapshot := Some (Rfid_core.Engine.snapshot engine)
          end)
        stream;
      Wal.close writer;
      Rfid_core.Engine.set_journal engine None;
      let original_events = List.rev !original_events in
      (* Recovery: restore the checkpoint, replay ONLY the WAL. *)
      let snapshot = Option.get !snapshot in
      let recovered =
        Rfid_core.Engine.restore ~world:wh.Rfid_sim.Warehouse.world
          ~params:Params.default ~config snapshot
      in
      let fresh_guard = Ingest.create ~max_object_id:4 () in
      let tail = Wal.read ~path:wal_path in
      Alcotest.(check bool) "log is clean" true (tail.Wal.note = None);
      match Wal.replay ~guard:fresh_guard ~engine:recovered tail.Wal.entries with
      | Error msg -> Alcotest.fail msg
      | Ok replayed ->
          (* The replayed engine must agree with the original exactly:
             same epoch, same event tail past the checkpoint, same
             posterior estimates. *)
          Alcotest.(check int) "epoch matches"
            (Rfid_core.Engine.epoch engine)
            (Rfid_core.Engine.epoch recovered);
          let past_cut =
            List.filter
              (fun (e : Rfid_core.Event.t) -> e.Rfid_core.Event.ev_epoch > cut)
              original_events
          in
          Alcotest.(check int) "replayed event count" (List.length past_cut)
            (List.length replayed);
          List.iter2
            (fun (a : Rfid_core.Event.t) b ->
              if a <> b then
                Alcotest.failf "replayed event differs:@ %a@ vs@ %a"
                  Rfid_core.Event.pp a Rfid_core.Event.pp b)
            past_cut replayed;
          let continue engine =
            List.concat_map
              (fun (o : Types.observation) ->
                match Ingest.step_engine (Ingest.create ~max_object_id:4 ()) engine o with
                | Ok evs -> evs
                | Error (_, m) -> Alcotest.fail m)
              (List.filter
                 (fun (o : Types.observation) ->
                   o.Types.o_epoch > Rfid_core.Engine.epoch engine)
                 stream)
            @ Rfid_core.Engine.flush engine
          in
          let a = continue engine and b = continue recovered in
          Alcotest.(check int) "continuation event count" (List.length a)
            (List.length b);
          if a <> b then Alcotest.fail "post-recovery continuation diverged")

let suite =
  ( "wal",
    [
      Alcotest.test_case "record round-trip" `Quick test_roundtrip;
      Alcotest.test_case "missing file is empty" `Quick test_missing_file;
      Alcotest.test_case "torn tail discarded + repaired" `Quick test_torn_tail;
      Alcotest.test_case "corrupt middle stops cleanly" `Quick test_corrupt_middle;
      Alcotest.test_case "garbage file yields nothing" `Quick test_garbage_file;
      Alcotest.test_case "checkpoint + wal replay is bit-identical" `Slow
        test_checkpoint_plus_wal_recovery;
    ] )
