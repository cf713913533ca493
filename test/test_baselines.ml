open Rfid_baselines
open Rfid_model

(* SMURF window mechanics, seen through [Smurf.run]: one tag, read or
   missed per epoch; each presence period the window declares yields
   one event at its last present epoch. *)

let smurf_epochs reads =
  let obs =
    List.mapi
      (fun e read ->
        {
          Types.o_epoch = e;
          o_reported_loc = Util.vec3 0.5 5. 0.;
          o_read_tags = (if read then [ Types.Object_tag 0 ] else []);
        })
      reads
  in
  Smurf.run ~world:(Util.two_shelf_world ()) ~read_range:3. ~seed:1 obs
  |> List.map (fun (ev : Rfid_core.Event.t) -> ev.Rfid_core.Event.ev_epoch)

let test_window_present_while_read () =
  Alcotest.(check (list int)) "one period through the last read" [ 9 ]
    (smurf_epochs (List.init 10 (fun _ -> true)))

let test_window_absent_initially_silent () =
  Alcotest.(check (list int)) "no reads: no events" [] (smurf_epochs (List.init 5 (fun _ -> false)))

let test_window_smooths_dropouts () =
  (* Read rate ~50%: once the window has adapted, a missed epoch must
     not end the presence period. *)
  let reads = [ true; true; false; true; false; true; true; false; true; false; false ] in
  match List.rev (smurf_epochs reads) with
  | last :: _ -> Alcotest.(check int) "single misses smoothed over" 10 last
  | [] -> Alcotest.fail "expected a presence period"

let test_window_detects_departure () =
  (* Tag gone: a long run of misses must eventually flip presence. *)
  match smurf_epochs (List.init 41 (fun e -> e <= 14)) with
  | [ e ] -> Alcotest.(check bool) "declared gone before the end" true (e < 40)
  | es -> Alcotest.failf "expected one period, got %d" (List.length es)

let test_window_cap () =
  (* Tiny read rate pushes w* huge; with the window capped at 25 epochs
     every 26-epoch gap between reads ends the period. *)
  Alcotest.(check int) "one period per read" 8
    (List.length (smurf_epochs (List.init 190 (fun e -> e mod 27 = 0))))

(* End-to-end SMURF and Uniform on simulated traces *)

let scenario ?(rr = 0.8) ?(seed = 41) () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:10 () in
  let sensor = Rfid_sim.Truth_sensor.cone ~rr_major:rr () in
  let config = Rfid_sim.Trace_gen.default_config ~sensor () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config
      (Rfid_prob.Rng.create ~seed)
  in
  (wh, trace)

let test_smurf_emits_events () =
  let wh, trace = scenario () in
  let events =
    Smurf.run ~world:wh.Rfid_sim.Warehouse.world
      ~read_range:3. ~seed:2
      (Trace.observations trace)
  in
  Alcotest.(check bool) "events produced" true (List.length events > 0);
  Util.check_close ~eps:0.01 "every object reported" 1.
    (Util.coverage events trace);
  (* Sampled locations are always on shelves. *)
  List.iter
    (fun (ev : Rfid_core.Event.t) ->
      if not (World.contains wh.Rfid_sim.Warehouse.world ev.Rfid_core.Event.ev_loc)
      then Alcotest.fail "SMURF event off-shelf")
    events

let test_smurf_error_bounded_but_worse_than_nothing () =
  let wh, trace = scenario () in
  let events =
    Smurf.run ~world:wh.Rfid_sim.Warehouse.world
      ~read_range:3. ~seed:2
      (Trace.observations trace)
  in
  let err = Rfid_eval.Metrics.inference_error events trace in
  Alcotest.(check bool)
    (Printf.sprintf "XY %.3f within sane bounds" err.Rfid_eval.Metrics.mean_xy)
    true
    (err.Rfid_eval.Metrics.mean_xy > 0.05 && err.Rfid_eval.Metrics.mean_xy < 3.)

let test_smurf_ignores_shelf_tags () =
  let wh, trace = scenario () in
  let shelf_only =
    List.map
      (fun (o : Types.observation) ->
        {
          o with
          Types.o_read_tags =
            List.filter
              (fun t -> match t with Types.Shelf_tag _ -> true | _ -> false)
              o.Types.o_read_tags;
        })
      (Trace.observations trace)
  in
  let events =
    Smurf.run ~world:wh.Rfid_sim.Warehouse.world
      ~read_range:3. ~seed:2 shelf_only
  in
  Alcotest.(check int) "no object readings, no events" 0 (List.length events)

let test_uniform_baseline () =
  let wh, trace = scenario () in
  let events =
    Uniform.run ~world:wh.Rfid_sim.Warehouse.world
      ~read_range:3. ~seed:2
      (Trace.observations trace)
  in
  Util.check_close ~eps:0.01 "coverage" 1. (Util.coverage events trace);
  List.iter
    (fun (ev : Rfid_core.Event.t) ->
      if not (World.contains wh.Rfid_sim.Warehouse.world ev.Rfid_core.Event.ev_loc)
      then Alcotest.fail "uniform event off-shelf")
    events

let test_engine_beats_baselines () =
  (* The paper's headline: our system < SMURF < uniform (on average). *)
  let wh, trace = scenario () in
  let cone = Rfid_sim.Truth_sensor.cone ~rr_major:0.8 () in
  let sensor =
    Rfid_learn.Supervised.fit_sensor ~samples:8000
      ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob ~seed:3 ()
  in
  let params = Params.create ~sensor () in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
      ~num_reader_particles:60 ~num_object_particles:150 ()
  in
  let ours = Rfid_eval.Runner.run_engine ~params ~config ~seed:4 trace in
  let smurf_events =
    Smurf.run ~world:wh.Rfid_sim.Warehouse.world
      ~read_range:3. ~seed:2
      (Trace.observations trace)
  in
  let uniform_events =
    Uniform.run ~world:wh.Rfid_sim.Warehouse.world
      ~read_range:3. ~seed:2
      (Trace.observations trace)
  in
  let e_ours = ours.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy in
  let e_smurf =
    (Rfid_eval.Metrics.inference_error smurf_events trace).Rfid_eval.Metrics.mean_xy
  in
  let e_uniform =
    (Rfid_eval.Metrics.inference_error uniform_events trace).Rfid_eval.Metrics.mean_xy
  in
  Alcotest.(check bool)
    (Printf.sprintf "ours %.3f < smurf %.3f" e_ours e_smurf)
    true (e_ours < e_smurf);
  Alcotest.(check bool)
    (Printf.sprintf "smurf %.3f <= uniform %.3f (weak order)" e_smurf e_uniform)
    true
    (e_smurf <= e_uniform +. 0.25)

let test_config_validation () =
  let world = Util.two_shelf_world () in
  Util.check_raises_invalid "bad smurf range" (fun () ->
      ignore (Smurf.run ~world ~read_range:0. ~seed:1 []));
  Util.check_raises_invalid "bad uniform range" (fun () ->
      ignore (Uniform.run ~world ~read_range:(-1.) ~seed:1 []))

let suite =
  ( "baselines",
    [
      Alcotest.test_case "window present while read" `Quick
        test_window_present_while_read;
      Alcotest.test_case "window silent before first read" `Quick
        test_window_absent_initially_silent;
      Alcotest.test_case "window smooths dropouts" `Quick test_window_smooths_dropouts;
      Alcotest.test_case "window detects departure" `Quick test_window_detects_departure;
      Alcotest.test_case "window cap" `Quick test_window_cap;
      Alcotest.test_case "smurf emits events" `Quick test_smurf_emits_events;
      Alcotest.test_case "smurf error bounded" `Quick
        test_smurf_error_bounded_but_worse_than_nothing;
      Alcotest.test_case "smurf ignores shelf tags" `Quick test_smurf_ignores_shelf_tags;
      Alcotest.test_case "uniform baseline" `Quick test_uniform_baseline;
      Alcotest.test_case "engine beats baselines" `Slow test_engine_beats_baselines;
      Alcotest.test_case "config validation" `Quick test_config_validation;
    ] )
