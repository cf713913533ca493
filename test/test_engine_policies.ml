(* Focused tests of engine policies and edge cases not covered by the
   main filter suite: report scheduling corner cases, estimate
   statistics, and configuration interplay. *)
open Rfid_core
open Rfid_model

let fitted_params =
  lazy
    (let cone = Rfid_sim.Truth_sensor.cone () in
     let sensor =
       Rfid_learn.Supervised.fit_sensor ~samples:8000
         ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob ~seed:2 ()
     in
     Params.create ~sensor ())

let scenario ?(num_objects = 8) ?(rounds = 1) ?(seed = 77) () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed)
  in
  (wh, trace)

let test_event_covariance_is_sane () =
  let _, trace = scenario () in
  let config =
    Config.create ~variant:Config.Factorized ~num_reader_particles:60
      ~num_object_particles:120 ()
  in
  let r =
    Rfid_eval.Runner.run_engine ~params:(Lazy.force fitted_params) ~config ~seed:5 trace
  in
  List.iter
    (fun (ev : Event.t) ->
      match ev.Event.ev_cov with
      | None -> Alcotest.fail "engine events must carry statistics"
      | Some cov ->
          (* Symmetric, PSD-ish diagonal, and a sub-foot posterior
             spread once an object has been tracked. *)
          Util.check_close ~eps:1e-9 "cov symmetric" cov.(0).(1) cov.(1).(0);
          Alcotest.(check bool) "var x >= 0" true (cov.(0).(0) >= 0.);
          let sd = sqrt ((cov.(0).(0) +. cov.(1).(1)) /. 2.) in
          Alcotest.(check bool) "posterior sd < 2 ft" true (sd < 2.))
    r.Rfid_eval.Runner.events

let test_multiple_encounters_emit_multiple_events () =
  let _, trace = scenario ~rounds:2 () in
  let config =
    Config.create ~variant:Config.Factorized_indexed ~num_reader_particles:60
      ~num_object_particles:100 ~report_delay:20 ()
  in
  let r =
    Rfid_eval.Runner.run_engine ~params:(Lazy.force fitted_params) ~config ~seed:5 trace
  in
  (* Two scan rounds -> two encounters -> (at least) two events for the
     typical object. *)
  let by_obj = Hashtbl.create 8 in
  List.iter
    (fun (ev : Event.t) ->
      Hashtbl.replace by_obj ev.Event.ev_obj
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_obj ev.Event.ev_obj)))
    r.Rfid_eval.Runner.events;
  let twice = Hashtbl.fold (fun _ c acc -> if c >= 2 then acc + 1 else acc) by_obj 0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 8 objects reported twice" twice)
    true (twice >= 6)

let test_zero_report_delay () =
  (* report_delay = 0: the event fires in the same epoch the object is
     first seen. *)
  let wh, trace = scenario () in
  let config =
    Config.create ~variant:Config.Factorized ~num_reader_particles:40
      ~num_object_particles:60 ~report_delay:0 ()
  in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params) ~config
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:5 ()
  in
  let first_event_epoch = ref None in
  let first_read_epoch = ref None in
  List.iter
    (fun (obs : Types.observation) ->
      (match (!first_read_epoch, obs.Types.o_read_tags) with
      | None, tag :: _ when (match tag with Types.Object_tag _ -> true | _ -> false) ->
          first_read_epoch := Some obs.Types.o_epoch
      | _ -> ());
      match (Engine.step engine obs, !first_event_epoch) with
      | ev :: _, None -> first_event_epoch := Some ev.Event.ev_epoch
      | _ -> ())
    (Trace.observations trace);
  match (!first_read_epoch, !first_event_epoch) with
  | Some r, Some e -> Alcotest.(check int) "event at first read" r e
  | _ -> Alcotest.fail "no reads or no events"

let test_decompress_particle_count () =
  (* After a re-detection, a previously compressed object runs on the
     configured (small) particle budget. *)
  let wh, trace = scenario ~rounds:2 () in
  let config =
    Config.create ~variant:Config.Factorized_compressed ~num_reader_particles:60
      ~num_object_particles:100 ~compress_after:8 ~decompress_particles:10 ()
  in
  let rng = Rfid_prob.Rng.create ~seed:5 in
  let filter =
    Factored_filter.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Lazy.force fitted_params) ~config
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh) ~rng
  in
  let half = Trace.epochs trace / 2 in
  let decompressed_size = ref None in
  Array.iter
    (fun (st : Trace.step) ->
      Factored_filter.step filter st.Trace.observation;
      (* Shortly into round 2, object 7 (scanned last in round 1, first
         in round 2) gets re-detected. *)
      if st.Trace.epoch > half && !decompressed_size = None then begin
        let n = ref 0 in
        Factored_filter.iter_object_particles filter 7 (fun _ _ _ -> incr n);
        if !n > 0 then decompressed_size := Some !n
      end)
    trace.Trace.steps;
  match !decompressed_size with
  | Some n ->
      Alcotest.(check bool)
        (Printf.sprintf "decompressed budget %d <= 2x configured" n)
        true (n <= 20)
  | None -> Alcotest.fail "object 7 never re-expanded"

let suite =
  ( "engine_policies",
    [
      Alcotest.test_case "event covariance sane" `Quick test_event_covariance_is_sane;
      Alcotest.test_case "multiple encounters, multiple events" `Quick
        test_multiple_encounters_emit_multiple_events;
      Alcotest.test_case "zero report delay" `Quick test_zero_report_delay;
      Alcotest.test_case "decompression particle budget" `Quick
        test_decompress_particle_count;
    ] )
