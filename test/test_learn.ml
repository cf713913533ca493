open Rfid_model

let cone = Rfid_sim.Truth_sensor.cone ()

let test_supervised_fit_quality () =
  let m =
    Rfid_learn.Supervised.fit_sensor ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
      ~seed:1 ()
  in
  let mae =
    Rfid_learn.Supervised.mean_abs_error m
      ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
  in
  Alcotest.(check bool) (Printf.sprintf "MAE %.4f < 0.05" mae) true (mae < 0.05);
  (* Decay constraints respected. *)
  Alcotest.(check bool) "a1 <= 0" true (m.Sensor_model.a1 <= 0.);
  Alcotest.(check bool) "a2 <= 0" true (m.Sensor_model.a2 <= 0.);
  Alcotest.(check bool) "b2 <= 0" true (m.Sensor_model.b2 <= 0.)

(* The sensor every `rfid_clean serve` boot fits (seed 99, default
   cone), pinned to the bit: drift here changes every served answer. *)
let test_supervised_fit_pinned () =
  let m =
    Rfid_learn.Supervised.fit_sensor ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
      ~seed:99 ()
  in
  Alcotest.(check (list string))
    "seed-99 coefficients"
    [
      "0x1.d42adabf8f4bdp+2"; "0x0p+0"; "-0x1.52e0a5a4cc4p-1"; "0x0p+0";
      "-0x1.a35ff20224accp+5";
    ]
    (Array.to_list (Array.map (Printf.sprintf "%h") (Sensor_model.to_coef m)))

let test_supervised_validation () =
  Util.check_raises_invalid "zero samples" (fun () ->
      ignore
        (Rfid_learn.Supervised.fit_sensor ~samples:0
           ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob ~seed:1 ()));
  Util.check_raises_invalid "empty pairs" (fun () ->
      ignore
        (Rfid_learn.Supervised.fit_from_pairs ~geometries:[||] ~outcomes:[||] ()))

let test_fit_from_pairs_recovers () =
  (* Plant a logistic sensor, sample outcomes, refit. *)
  let truth = Sensor_model.default in
  let rng = Rfid_prob.Rng.create ~seed:4 in
  let n = 20000 in
  let geometries =
    Array.init n (fun _ ->
        ( Rfid_prob.Rng.uniform rng ~lo:0. ~hi:6.,
          Rfid_prob.Rng.uniform rng ~lo:0. ~hi:Float.pi ))
  in
  let outcomes =
    Array.map
      (fun (d, theta) ->
        Rfid_prob.Rng.bernoulli rng ~p:(Sensor_model.read_prob_at truth ~d ~theta))
      geometries
  in
  let m = Rfid_learn.Supervised.fit_from_pairs ~geometries ~outcomes () in
  let mae =
    Rfid_learn.Supervised.mean_abs_error m
      ~read_prob:(fun ~d ~theta -> Sensor_model.read_prob_at truth ~d ~theta)
  in
  Alcotest.(check bool) (Printf.sprintf "planted recovery MAE %.4f" mae) true (mae < 0.02)

(* Calibration fixtures: 20-tag warehouse training trace. *)
let training_setup ~shelf_tags_kept ~seed =
  let wh = Rfid_sim.Warehouse.layout ~objects_per_shelf:5 ~num_objects:20 () in
  let world =
    Rfid_model.World.with_shelf_tags wh.Rfid_sim.Warehouse.world
      ~keep:(List.init shelf_tags_kept Fun.id)
  in
  let config = Rfid_sim.Trace_gen.default_config () in
  let path = Rfid_sim.Trace_gen.straight_pass wh ~rounds:1 in
  let trace =
    Rfid_sim.Trace_gen.run ~world ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh) ~path ~config
      (Rfid_prob.Rng.create ~seed)
  in
  (world, trace)

let calibrate_with ?(init = Params.default) ~shelf_tags_kept () =
  let world, trace = training_setup ~shelf_tags_kept ~seed:17 in
  Rfid_learn.Calibration.calibrate ~world ~init ~em_iters:3
    ~init_reader:trace.Trace.steps.(0).Trace.true_reader (Trace.observations trace)

let test_em_learns_reasonable_sensor () =
  (* Start from an uninformative sensor (a coin flip at every geometry)
     and require EM to recover most of the structure. *)
  let blind = Sensor_model.of_coef [| 0.; 0.; 0.; 0.; 0. |] in
  let init = Params.create ~sensor:blind () in
  let learned = calibrate_with ~init ~shelf_tags_kept:4 () in
  let mae =
    Rfid_learn.Supervised.mean_abs_error learned.Params.sensor
      ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
  in
  let mae_blind =
    Rfid_learn.Supervised.mean_abs_error blind
      ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
  in
  Alcotest.(check bool)
    (Printf.sprintf "EM MAE %.4f well below blind init %.4f" mae mae_blind)
    true
    (mae < 0.5 *. mae_blind && mae < 0.2)

let test_em_learns_motion_and_sensing () =
  let learned = calibrate_with ~shelf_tags_kept:4 () in
  let v = learned.Params.motion.Motion_model.velocity in
  Util.check_close ~eps:0.02 "velocity y" 0.1 v.Rfid_geom.Vec3.y;
  Util.check_close ~eps:0.02 "velocity x" 0. v.Rfid_geom.Vec3.x;
  let bias = learned.Params.sensing.Location_sensing.bias in
  Util.check_close ~eps:0.25 "sensing bias ~0" 0. (Rfid_geom.Vec3.norm bias)

let test_em_detects_systematic_bias () =
  (* Trace generated with a constant +0.4 ft reported-location offset
     along y; EM must find it via the shelf tags. *)
  let wh = Rfid_sim.Warehouse.layout ~objects_per_shelf:5 ~num_objects:20 () in
  let sensing =
    Location_sensing.create ~bias:(Util.vec3 0. 0.4 0.)
      ~sigma:(Util.vec3 0.05 0.05 0.) ()
  in
  let config_gen =
    {
      (Rfid_sim.Trace_gen.default_config ()) with
      Rfid_sim.Trace_gen.location_noise = Rfid_sim.Trace_gen.Gaussian_report sensing;
    }
  in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:config_gen
      (Rfid_prob.Rng.create ~seed:23)
  in
  let learned =
    Rfid_learn.Calibration.calibrate ~world:wh.Rfid_sim.Warehouse.world
      ~init:Params.default ~em_iters:5
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader (Trace.observations trace)
  in
  let bias = learned.Params.sensing.Location_sensing.bias in
  (* EM recovers most of the systematic offset; the filtered (not
     smoothed) posterior leaves a residual fraction — the paper's
     "model On - learned" curve shows the same slight gap to "On -
     true" in Fig. 5(g). *)
  Util.check_in_range "recovered y bias" ~lo:0.25 ~hi:0.55 bias.Rfid_geom.Vec3.y

let test_calibrate_validation () =
  let world, _ = training_setup ~shelf_tags_kept:4 ~seed:1 in
  Util.check_raises_invalid "empty stream" (fun () ->
      ignore
        (Rfid_learn.Calibration.calibrate ~world ~init:Params.default ~em_iters:4
           ~init_reader:(Reader_state.make ~loc:Rfid_geom.Vec3.zero ~heading:0.)
           []))

let suite =
  ( "learn",
    [
      Alcotest.test_case "supervised fit quality" `Quick test_supervised_fit_quality;
      Alcotest.test_case "supervised fit pinned at seed 99" `Quick
        test_supervised_fit_pinned;
      Alcotest.test_case "supervised validation" `Quick test_supervised_validation;
      Alcotest.test_case "fit_from_pairs planted recovery" `Quick
        test_fit_from_pairs_recovers;
      Alcotest.test_case "EM improves sensor" `Slow test_em_learns_reasonable_sensor;
      Alcotest.test_case "EM learns motion/sensing" `Slow
        test_em_learns_motion_and_sensing;
      Alcotest.test_case "EM detects systematic bias" `Slow
        test_em_detects_systematic_bias;
      Alcotest.test_case "calibrate validation" `Quick test_calibrate_validation;
    ] )
