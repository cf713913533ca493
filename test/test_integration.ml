(* Cross-module integration tests: whole pipelines, agreement between
   the two filter families, and end-to-end robustness. *)
open Rfid_model
open Rfid_geom

let fitted_sensor =
  lazy
    (let cone = Rfid_sim.Truth_sensor.cone () in
     Rfid_learn.Supervised.fit_sensor ~samples:8000
       ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob ~seed:2 ())

(* Factored and unfactorized filters sample differently but implement
   the same posterior (Eq. 5), so they must agree in distribution, not
   just land near each other once. Both run on one one-object trace
   over 16 engine seeds — the basic joint filter with J = 3000, the
   factored one with J x K = 100 x 500 — and per axis the seed-averaged
   posterior means must agree within 3 combined standard errors of
   those averages. *)
let test_factored_matches_unfactorized () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:1 () in
  let world = wh.Rfid_sim.Warehouse.world in
  let trace =
    Rfid_sim.Trace_gen.run ~world ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:51)
  in
  let params = Params.create ~sensor:(Lazy.force fitted_sensor) () in
  let init_reader = trace.Trace.steps.(0).Trace.true_reader in
  let observations = Trace.observations trace in
  let final_mean = function
    | Some (loc, _) -> loc
    | None -> Alcotest.fail "missing estimate"
  in
  let joint seed =
    let filter =
      Rfid_core.Basic_filter.create ~world ~params
        ~config:(Rfid_core.Config.create ~num_reader_particles:3000 ())
        ~init_reader ~num_objects:1 ~rng:(Rfid_prob.Rng.create ~seed)
    in
    List.iter (Rfid_core.Basic_filter.step filter) observations;
    final_mean (Rfid_core.Basic_filter.estimate filter 0)
  in
  let factored seed =
    let config =
      Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized
        ~num_reader_particles:100 ~num_object_particles:500 ()
    in
    let engine = Rfid_core.Engine.create ~world ~params ~config ~init_reader ~seed () in
    List.iter (fun o -> ignore (Rfid_core.Engine.step engine o)) observations;
    final_mean (Rfid_core.Engine.estimate engine 0)
  in
  let seeds = List.init 16 (fun i -> i + 1) in
  let joints = List.map joint seeds and factoreds = List.map factored seeds in
  (* Mean of the per-seed means and its standard error. *)
  let mean_se xs =
    let n = float_of_int (List.length xs) in
    let m = List.fold_left ( +. ) 0. xs /. n in
    let var = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. (n -. 1.) in
    (m, sqrt (var /. n))
  in
  let truth = (Trace.final_object_locs trace).(0) in
  List.iter
    (fun (axis, coord) ->
      let mj, sej = mean_se (List.map coord joints)
      and mf, sef = mean_se (List.map coord factoreds) in
      let se = sqrt ((sej *. sej) +. (sef *. sef)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: joint %.3f vs factored %.3f within 3 SE (%.3f)" axis mj mf se)
        true
        (Float.abs (mj -. mf) <= 3. *. se);
      (* Both near the truth. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: factored mean %.3f near truth %.3f" axis mf (coord truth))
        true
        (Float.abs (mf -. coord truth) < 0.8))
    [ ("x", fun (v : Vec3.t) -> v.Vec3.x); ("y", fun (v : Vec3.t) -> v.Vec3.y) ]

(* Model-matched case: data generated by the engine's own model (the
   §III-B sampler). The only gap is Monte-Carlo error. *)
let test_generative_self_consistency () =
  let world = Util.two_shelf_world () in
  let params =
    Params.create ~sensor:(Lazy.force fitted_sensor)
      ~motion:(Motion_model.create ~velocity:(Util.vec3 0. 0.1 0.) ())
      ()
  in
  let init_reader = Reader_state.make ~loc:(Util.vec3 0. (-1.) 0.) ~heading:0. in
  let trace =
    Generative.run ~world ~params ~init_reader ~num_objects:6 ~epochs:200
      (Rfid_prob.Rng.create ~seed:53)
  in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized
      ~num_reader_particles:80 ~num_object_particles:200 ()
  in
  let r = Rfid_eval.Runner.run_engine ~params ~config ~seed:6 trace in
  Alcotest.(check bool)
    (Printf.sprintf "model-matched error %.3f < 0.8"
       r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy)
    true
    (r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy < 0.8)

(* Full lab pipeline: calibrate on one scan, evaluate on another; the
   calibrated engine must beat the uniform baseline. *)
let test_lab_pipeline () =
  let rig = Rfid_sim.Lab.deployment ~timeout_ms:500 () in
  let heading_model = Rfid_core.Config.Known_heading Rfid_sim.Lab.heading in
  let train = Rfid_sim.Lab.scan rig ~seed:8 in
  let learned =
    Rfid_learn.Calibration.calibrate ~heading_model ~world:rig.Rfid_sim.Lab.world
      ~init:Params.default ~em_iters:2
      ~init_reader:train.Trace.steps.(0).Trace.true_reader (Trace.observations train)
  in
  let trace = Rfid_sim.Lab.scan rig ~seed:7 in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
      ~num_reader_particles:100 ~num_object_particles:200 ~heading_model ()
  in
  let ours = Rfid_eval.Runner.run_engine ~params:learned ~config ~seed:4 trace in
  let range = Float.min 8. (Sensor_model.detection_range learned.Params.sensor) in
  let uniform =
    Rfid_baselines.Uniform.run ~world:rig.Rfid_sim.Lab.world ~read_range:range
      ~heading_of:Rfid_sim.Lab.heading ~seed:5 (Trace.observations trace)
  in
  let e_ours = ours.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy in
  let e_uniform =
    (Rfid_eval.Metrics.inference_error uniform trace).Rfid_eval.Metrics.mean_xy
  in
  Alcotest.(check bool)
    (Printf.sprintf "ours %.3f < uniform %.3f" e_ours e_uniform)
    true (e_ours < e_uniform);
  Alcotest.(check bool) "most objects reported" true
    (Util.coverage ours.Rfid_eval.Runner.events trace > 0.9)

(* Heading tracked as hidden state: with Track_heading and shelf tags,
   the reader posterior still localizes. *)
let test_heading_tracking () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:12 ~objects_per_shelf:4 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:57)
  in
  let params = Params.create ~sensor:(Lazy.force fitted_sensor) () in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized
      ~num_reader_particles:150 ~num_object_particles:200
      ~heading_model:(Rfid_core.Config.Track_heading { jump_prob = 0.02 })
      ()
  in
  let r = Rfid_eval.Runner.run_engine ~params ~config ~seed:4 trace in
  Alcotest.(check bool)
    (Printf.sprintf "tracked-heading error %.3f < 1.2"
       r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy)
    true
    (r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy < 1.2)

(* Engine -> mini-CQL pipeline: the fire-code query fires on a planted
   overload and stays silent otherwise. *)
let test_stream_pipeline () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:12 () in
  let hot = Util.vec3 2.3 3.3 0. in
  let movements =
    List.mapi
      (fun i obj ->
        {
          Rfid_sim.Trace_gen.move_epoch = 5;
          move_obj = obj;
          move_to = Vec3.add hot (Util.vec3 (0.1 *. float_of_int i) (0.1 *. float_of_int i) 0.);
        })
      [ 2; 5; 8; 11 ]
  in
  let config_gen =
    { (Rfid_sim.Trace_gen.default_config ()) with Rfid_sim.Trace_gen.movements }
  in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:config_gen
      (Rfid_prob.Rng.create ~seed:59)
  in
  let params = Params.create ~sensor:(Lazy.force fitted_sensor) () in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params
      ~config:
        (Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
           ~num_reader_particles:80 ~num_object_particles:150 ())
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:3 ()
  in
  let events = Rfid_core.Engine.run engine (Trace.observations trace) in
  let fire =
    Rfid_stream.Fire_code.create ~weight_of:(fun _ -> 60.)
  in
  let violations = Rfid_stream.Fire_code.run fire events in
  Alcotest.(check bool) "overload detected" true (List.length violations > 0);
  let cell = (List.hd violations).Rfid_stream.Fire_code.v_cell in
  Alcotest.(check (pair int int)) "right cell" (2, 3) cell

(* Robustness: an engine fed an observation stream with no readings at
   all must stay silent and sane. *)
let test_all_misses () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:4 () in
  let obs =
    List.init 50 (fun e ->
        {
          Types.o_epoch = e;
          o_reported_loc = Util.vec3 0. (0.1 *. float_of_int e) 0.;
          o_read_tags = [];
        })
  in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
      ~config:(Rfid_core.Config.create ())
      ~init_reader:(Rfid_sim.Warehouse.reader_start wh)
      ~seed:1 ()
  in
  let events = Rfid_core.Engine.run engine obs in
  Alcotest.(check int) "no events from silence" 0 (List.length events);
  (* Reader estimate still tracks the reported path. *)
  let est = Rfid_core.Engine.reader_estimate engine in
  Alcotest.(check bool) "reader followed reports" true
    (Vec3.dist_xy est (Util.vec3 0. 4.9 0.) < 0.5)

(* The paper's future-work scenario: a handheld reader with NO location
   stream at all. All location-sensing sigmas are zero (axes
   unobserved), the proposal runs on the motion model alone, and the
   reader localizes itself purely from shelf-tag readings (Fig. 2(c))
   — a SLAM-style degenerate case the engine supports without special
   code. *)
let test_handheld_without_location_stream () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:12 ~objects_per_shelf:3 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:61)
  in
  (* Blind the location stream. *)
  let observations =
    List.map
      (fun (o : Types.observation) -> { o with Types.o_reported_loc = Vec3.zero })
      (Trace.observations trace)
  in
  let params =
    Params.create ~sensor:(Lazy.force fitted_sensor)
      ~motion:
        (Motion_model.create ~velocity:(Util.vec3 0. 0.1 0.)
           ~sigma:(Util.vec3 0.03 0.03 0.) ())
      ~sensing:(Location_sensing.create ~sigma:Vec3.zero ())
      ()
  in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized
      ~num_reader_particles:200 ~num_object_particles:200
      ~proposal:Rfid_core.Config.From_velocity ()
  in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params ~config
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:3 ()
  in
  let reader_errs = ref [] in
  List.iteri
    (fun i obs ->
      ignore (Rfid_core.Engine.step engine obs);
      let est = Rfid_core.Engine.reader_estimate engine in
      reader_errs :=
        Vec3.dist_xy est trace.Trace.steps.(i).Trace.true_reader.Reader_state.loc
        :: !reader_errs)
    observations;
  let events = Rfid_core.Engine.flush engine in
  let mean_reader_err = Rfid_prob.Stats.mean (Array.of_list !reader_errs) in
  Alcotest.(check bool)
    (Printf.sprintf "reader self-localizes from shelf tags: %.3f < 0.6" mean_reader_err)
    true (mean_reader_err < 0.6);
  let err = Rfid_eval.Metrics.inference_error events trace in
  Alcotest.(check bool)
    (Printf.sprintf "objects located without a location stream: %.3f < 1.2"
       err.Rfid_eval.Metrics.mean_xy)
    true
    (err.Rfid_eval.Metrics.mean_xy < 1.2)

let suite =
  ( "integration",
    [
      Alcotest.test_case "factored matches unfactorized" `Slow
        test_factored_matches_unfactorized;
      Alcotest.test_case "generative self-consistency" `Slow
        test_generative_self_consistency;
      Alcotest.test_case "lab pipeline" `Slow test_lab_pipeline;
      Alcotest.test_case "heading tracking" `Slow test_heading_tracking;
      Alcotest.test_case "engine to CQL pipeline" `Slow test_stream_pipeline;
      Alcotest.test_case "all-miss stream" `Quick test_all_misses;
      Alcotest.test_case "handheld without location stream" `Slow
        test_handheld_without_location_stream;
    ] )
