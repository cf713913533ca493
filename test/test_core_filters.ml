(* Tests of the inference core: Config, Event, Basic_filter (through
   Runner.run_joint), Factored_filter, Engine. *)
open Rfid_core
open Rfid_model
open Rfid_geom

let test_config_validation () =
  Util.check_raises_invalid "zero particles" (fun () ->
      ignore (Config.create ~num_reader_particles:0 ()));
  Util.check_raises_invalid "bad ratio" (fun () ->
      ignore (Config.create ~resample_ratio:1.5 ()))

let test_event () =
  let ev =
    Event.make ~epoch:5 ~obj:3 ~loc:(Util.vec3 1. 2. 0.)
      ~cov:[| [| 4.; 0.; 0. |]; [| 0.; 16.; 0. |]; [| 0.; 0.; 0. |] |]
      ()
  in
  Alcotest.(check string) "sd_xy printed" "t=5 obj=3 loc=(1.000, 2.000, 0.000) (sd_xy=3.162)"
    (Format.asprintf "%a" Event.pp ev);
  let bare = Event.make ~epoch:0 ~obj:0 ~loc:Vec3.zero () in
  Alcotest.(check string) "no stats" "t=0 obj=0 loc=(0.000, 0.000, 0.000)"
    (Format.asprintf "%a" Event.pp bare)

(* A tiny deterministic scenario used across filter tests. *)
let scenario ?(num_objects = 6) ?(seed = 21) ?(rr = 1.0) () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects () in
  let sensor = Rfid_sim.Truth_sensor.cone ~rr_major:rr () in
  let config = Rfid_sim.Trace_gen.default_config ~sensor () in
  let path = Rfid_sim.Trace_gen.straight_pass wh ~rounds:1 in
  let rng = Rfid_prob.Rng.create ~seed in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh) ~path ~config rng
  in
  (wh, trace)

(* The engine's sensor model: supervised fit of the simulator cone —
   cached because the fit is not free. *)
let fitted_params =
  lazy
    (let cone = Rfid_sim.Truth_sensor.cone () in
     let sensor =
       Rfid_learn.Supervised.fit_sensor ~samples:8000
         ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob ~seed:2 ()
     in
     Params.create ~sensor ())

let engine_config ?(variant = Config.Factorized) () =
  Config.create ~variant ~num_reader_particles:60 ~num_object_particles:120 ()

let run_variant variant (trace : Trace.t) =
  let config = engine_config ~variant () in
  Rfid_eval.Runner.run_engine ~params:(Lazy.force fitted_params) ~config ~seed:5 trace

let test_factored_accuracy () =
  let _, trace = scenario () in
  let r = run_variant Config.Factorized trace in
  Alcotest.(check int) "event per object" 6 (List.length r.Rfid_eval.Runner.events);
  Alcotest.(check bool)
    (Printf.sprintf "XY error %.3f under 0.8 ft" r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy)
    true
    (r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy < 0.8)

let test_variants_agree () =
  let _, trace = scenario () in
  let indexed = run_variant Config.Factorized_indexed trace in
  let compressed = run_variant Config.Factorized_compressed trace in
  List.iter
    (fun (r : Rfid_eval.Runner.result) ->
      Alcotest.(check bool) "accuracy preserved" true
        (r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy < 0.9))
    [ indexed; compressed ]

let test_index_reduces_scope () =
  (* The sensing box spans ~±10 ft, so the warehouse run must be much
     longer than that for the index to have anything to exclude. *)
  let _, trace = scenario ~num_objects:100 () in
  let plain = run_variant Config.Factorized trace in
  let indexed = run_variant Config.Factorized_indexed trace in
  Alcotest.(check int) "plain touches everything" 100
    plain.Rfid_eval.Runner.max_objects_processed;
  Alcotest.(check bool)
    (Printf.sprintf "indexed scope %d < 75"
       indexed.Rfid_eval.Runner.max_objects_processed)
    true
    (indexed.Rfid_eval.Runner.max_objects_processed < 75)

let test_unfactorized_runs () =
  let _, trace = scenario ~num_objects:3 () in
  let config = Config.create ~num_reader_particles:400 () in
  let r =
    Rfid_eval.Runner.run_joint ~params:(Lazy.force fitted_params) ~config ~seed:5 trace
  in
  Alcotest.(check int) "events" 3 (List.length r.Rfid_eval.Runner.events);
  Alcotest.(check bool)
    (Printf.sprintf "XY error %.3f sane" r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy)
    true
    (r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy < 1.5)

let test_epoch_order_enforced () =
  let wh, trace = scenario () in
  let engine =
    Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
      ~config:(engine_config ())
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ()
  in
  let obs = List.hd (Trace.observations trace) in
  ignore (Engine.step engine obs);
  (* The ingest guard owns the duplicate/reorder policy; the engine
     only checks the contract, before anything reaches the journal. *)
  let journaled = ref 0 in
  Engine.set_journal engine (Some (fun _ -> incr journaled));
  Util.check_raises_invalid "equal epoch" (fun () -> Engine.step engine obs);
  Util.check_raises_invalid "earlier epoch" (fun () ->
      Engine.step engine { obs with Types.o_epoch = obs.Types.o_epoch - 1 });
  Util.check_raises_invalid "degraded equal epoch" (fun () ->
      Engine.step_degraded engine ~epoch:obs.Types.o_epoch);
  Alcotest.(check int) "nothing journaled" 0 !journaled;
  Alcotest.(check int) "epoch unchanged" obs.Types.o_epoch (Engine.epoch engine)

let test_missed_readings_still_reported () =
  (* At 60% read rate objects are missed often; smoothing must still
     produce an event for every object. *)
  let _, trace = scenario ~rr:0.6 () in
  let r = run_variant Config.Factorized trace in
  Util.check_close ~eps:0.01 "full coverage" 1.
    (Util.coverage r.Rfid_eval.Runner.events trace);
  Alcotest.(check bool) "error still bounded" true
    (r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy < 1.0)

let test_empty_stream () =
  let wh, _ = scenario () in
  let engine =
    Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
      ~config:(engine_config ())
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ()
  in
  Alcotest.(check (list pass)) "no events" [] (Engine.run engine []);
  Alcotest.(check int) "no objects" 0 (Engine.num_known engine);
  Alcotest.(check bool) "no estimate" true (Engine.estimate engine 0 = None)

let test_compression_lifecycle () =
  let wh, trace = scenario ~num_objects:10 () in
  let config =
    Config.create ~variant:Config.Factorized_compressed ~num_reader_particles:60
      ~num_object_particles:120 ~compress_after:10 ()
  in
  let rng = Rfid_prob.Rng.create ~seed:5 in
  let filter =
    Factored_filter.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params) ~config
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ~rng
  in
  List.iter (fun obs -> Factored_filter.step filter obs) (Trace.observations trace);
  (* By the end of the pass, the early objects must be compressed. *)
  Alcotest.(check bool) "object 0 compressed" true (Factored_filter.is_compressed filter 0);
  (* Compressed objects still have estimates. *)
  (match Factored_filter.estimate filter 0 with
  | Some (loc, _) ->
      let truth = Trace.final_object_locs trace in
      Alcotest.(check bool) "compressed estimate near truth" true
        (Vec3.dist_xy loc truth.(0) < 1.0)
  | None -> Alcotest.fail "estimate missing");
  (* iter_object_particles is a no-op on compressed objects. *)
  let visited = ref 0 in
  Factored_filter.iter_object_particles filter 0 (fun _ _ _ -> incr visited);
  Alcotest.(check int) "no particles while compressed" 0 !visited

let test_decompression_on_rescan () =
  (* Two scan rounds: objects compressed after round 1 must be
     decompressed and re-estimated in round 2, ending accurate. *)
  let wh = Rfid_sim.Warehouse.layout ~num_objects:8 () in
  let config_gen = Rfid_sim.Trace_gen.default_config () in
  let path = Rfid_sim.Trace_gen.straight_pass wh ~rounds:2 in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh) ~path ~config:config_gen
      (Rfid_prob.Rng.create ~seed:31)
  in
  let r = run_variant Config.Factorized_compressed trace in
  Alcotest.(check bool)
    (Printf.sprintf "XY error %.3f with compression across rounds"
       r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy)
    true
    (r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy < 0.9)

let test_reader_estimate_tracks_truth () =
  let wh, trace = scenario () in
  let rng = Rfid_prob.Rng.create ~seed:5 in
  let filter =
    Factored_filter.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params) ~config:(engine_config ())
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ~rng
  in
  let errors = ref [] in
  Array.iter
    (fun step ->
      Factored_filter.step filter step.Trace.observation;
      let est = Factored_filter.reader_estimate filter in
      errors := Vec3.dist_xy est step.Trace.true_reader.Reader_state.loc :: !errors)
    trace.Trace.steps;
  let mean_err = Rfid_prob.Stats.mean (Array.of_list !errors) in
  Alcotest.(check bool)
    (Printf.sprintf "reader tracking error %.3f < 0.2" mean_err)
    true (mean_err < 0.2)

let test_newly_seen_semantics () =
  let wh, trace = scenario ~num_objects:4 () in
  let rng = Rfid_prob.Rng.create ~seed:5 in
  let filter =
    Factored_filter.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params) ~config:(engine_config ())
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ~rng
  in
  let all_newly = ref [] in
  List.iter
    (fun obs ->
      Factored_filter.step filter obs;
      all_newly := Factored_filter.newly_seen filter @ !all_newly)
    (Trace.observations trace);
  (* A single pass: each object becomes newly seen exactly once. *)
  let sorted = List.sort Int.compare !all_newly in
  Alcotest.(check (list int)) "each object once" [ 0; 1; 2; 3 ] sorted

(* Edge cases of the lazy out-of-scope sweep (the eviction queue that
   replaced the every-epoch staleness scan): a re-read exactly at the
   staleness horizon resurrects the object before its queue entry
   fires, a re-read one epoch later finds it evicted and reports it
   newly seen again, and the eviction counter moves only for the
   genuine eviction. *)
let test_eviction_queue_edges () =
  let world = Util.two_shelf_world () in
  let horizon = Config.out_of_scope_after in
  let config =
    Config.create ~variant:Config.Factorized ~num_reader_particles:8
      ~num_object_particles:16 ()
  in
  let loc = Util.vec3 0. 5. 0. in
  let filter =
    Factored_filter.create ~world ~params:Params.default ~config
      ~init_reader:(Reader_state.make ~loc ~heading:0.)
      ~rng:(Rfid_prob.Rng.create ~seed:3)
  in
  let evictions = Rfid_obs.Metrics.counter "health.evicted_objects" in
  let base = Rfid_obs.Metrics.counter_value evictions in
  let step e tags =
    Factored_filter.step filter
      { Types.o_epoch = e; o_reported_loc = loc; o_read_tags = tags };
    Factored_filter.newly_seen filter
  in
  Alcotest.(check (list int)) "first read is newly seen" [ 7 ]
    (step 0 [ Types.Object_tag 7 ]);
  for e = 1 to horizon - 1 do
    Alcotest.(check (list int)) "silence" [] (step e [])
  done;
  (* Gap = horizon: not beyond it, so the object never left scope. *)
  Alcotest.(check (list int)) "re-read at horizon not newly seen" []
    (step horizon [ Types.Object_tag 7 ]);
  Alcotest.(check int) "no eviction yet" base (Rfid_obs.Metrics.counter_value evictions);
  for e = horizon + 1 to (2 * horizon) + 1 - 1 do
    Alcotest.(check (list int)) "silence" [] (step e [])
  done;
  (* Gap = horizon + 1: the entry from the horizon-epoch read has fired
     by now, so this read is a re-discovery. *)
  Alcotest.(check (list int)) "re-read past horizon newly seen" [ 7 ]
    (step ((2 * horizon) + 1) [ Types.Object_tag 7 ]);
  Alcotest.(check int) "exactly one eviction" (base + 1)
    (Rfid_obs.Metrics.counter_value evictions)

let test_events_report_delay () =
  let wh, trace = scenario ~num_objects:4 () in
  let config =
    Config.create ~variant:Config.Factorized ~num_reader_particles:60
      ~num_object_particles:120 ~report_delay:20 ()
  in
  let engine =
    Engine.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params) ~config
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ~seed:5 ()
  in
  let first_read = Hashtbl.create 8 in
  let events = ref [] in
  List.iter
    (fun (obs : Types.observation) ->
      List.iter
        (fun tag ->
          match tag with
          | Types.Object_tag i ->
              if not (Hashtbl.mem first_read i) then
                Hashtbl.replace first_read i obs.Types.o_epoch
          | Types.Shelf_tag _ -> ())
        obs.Types.o_read_tags;
      events := Engine.step engine obs @ !events)
    (Trace.observations trace);
  List.iter
    (fun (ev : Event.t) ->
      let fr = Hashtbl.find first_read ev.Event.ev_obj in
      Alcotest.(check bool) "event after delay" true (ev.Event.ev_epoch >= fr + 20))
    !events

let test_flush_emits_pending () =
  let wh, trace = scenario ~num_objects:4 () in
  (* Enormous report delay: nothing fires during the stream; flush must
     emit everything. *)
  let config =
    Config.create ~variant:Config.Factorized ~num_reader_particles:60
      ~num_object_particles:120 ~report_delay:100000 ()
  in
  let engine =
    Engine.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params) ~config
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ~seed:5 ()
  in
  let during =
    List.concat_map (fun obs -> Engine.step engine obs) (Trace.observations trace)
  in
  Alcotest.(check int) "nothing during stream" 0 (List.length during);
  let flushed = Engine.flush engine in
  Alcotest.(check int) "all at flush" 4 (List.length flushed);
  Alcotest.(check int) "flush idempotent" 0 (List.length (Engine.flush engine))

let test_determinism () =
  let _, trace = scenario () in
  let r1 = run_variant Config.Factorized_indexed trace in
  let r2 = run_variant Config.Factorized_indexed trace in
  Alcotest.(check bool) "same seed, same events" true
    (r1.Rfid_eval.Runner.events = r2.Rfid_eval.Runner.events)

let test_index_boxes_bounded () =
  let wh, trace = scenario ~num_objects:30 () in
  let rng = Rfid_prob.Rng.create ~seed:5 in
  let filter =
    Factored_filter.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params)
      ~config:(engine_config ~variant:Config.Factorized_indexed ())
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ~rng
  in
  List.iter (fun obs -> Factored_filter.step filter obs) (Trace.observations trace);
  let boxes = Factored_filter.num_index_boxes filter in
  Alcotest.(check bool) "boxes exist" true (boxes > 0);
  (* Consolidation keeps the box count far below the epoch count. *)
  Alcotest.(check bool)
    (Printf.sprintf "boxes %d << epochs %d" boxes (Trace.epochs trace))
    true
    (boxes < Trace.epochs trace / 2)

let suite =
  ( "core_filters",
    [
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "event accessors" `Quick test_event;
      Alcotest.test_case "factored accuracy" `Quick test_factored_accuracy;
      Alcotest.test_case "variants agree" `Quick test_variants_agree;
      Alcotest.test_case "index reduces scope" `Quick test_index_reduces_scope;
      Alcotest.test_case "unfactorized runs" `Slow test_unfactorized_runs;
      Alcotest.test_case "epoch order enforced" `Quick test_epoch_order_enforced;
      Alcotest.test_case "missed readings still reported" `Quick
        test_missed_readings_still_reported;
      Alcotest.test_case "empty stream" `Quick test_empty_stream;
      Alcotest.test_case "compression lifecycle" `Quick test_compression_lifecycle;
      Alcotest.test_case "decompression on rescan" `Quick test_decompression_on_rescan;
      Alcotest.test_case "reader estimate tracks truth" `Quick
        test_reader_estimate_tracks_truth;
      Alcotest.test_case "newly_seen semantics" `Quick test_newly_seen_semantics;
      Alcotest.test_case "eviction queue edges" `Quick test_eviction_queue_edges;
      Alcotest.test_case "event report delay" `Quick test_events_report_delay;
      Alcotest.test_case "flush emits pending" `Quick test_flush_emits_pending;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "index boxes bounded" `Quick test_index_boxes_bounded;
    ] )
