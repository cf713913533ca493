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

let hex_coef m = Array.to_list (Array.map (Printf.sprintf "%h") (Sensor_model.to_coef m))

let booted_sensor (b : Rfid_serve.Bootstrap.t) = b.Rfid_serve.Bootstrap.params.Params.sensor

let boot_at ?read_rate () =
  booted_sensor
    (Rfid_serve.Bootstrap.of_config ?read_rate ~objects:4 ~seed:1
       (Rfid_core.Config.create ()))

(* Every default boot takes the constant in lib/serve/bootstrap.ml
   instead of fitting; it must stay the runtime fit at seed 99 on the
   default cone to the bit, or served answers would depend on whether
   a path fitted or not. *)
let test_supervised_fit_pinned () =
  let m =
    Rfid_learn.Supervised.fit_sensor ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
      ~seed:99 ()
  in
  Alcotest.(check (list string))
    "runtime fit = the sensor Bootstrap.make builds"
    (hex_coef m)
    (hex_coef (booted_sensor (Rfid_serve.Bootstrap.make ~objects:4 ~seed:1 ())))

(* Read rate 1.0 (what `infer` passes by default) takes the shipped
   constant: two boots share one sensor value, where each runtime fit
   returns a fresh one. Any other rate still fits at construction. *)
let test_bootstrap_sensor_by_read_rate () =
  let at_one = boot_at ~read_rate:1.0 () in
  Alcotest.(check bool) "read_rate 1.0 shares the constant" true (at_one == boot_at ());
  Alcotest.(check bool) "so does Bootstrap.make" true
    (at_one == booted_sensor (Rfid_serve.Bootstrap.make ~objects:4 ~seed:1 ()));
  let cone07 = Rfid_sim.Truth_sensor.cone ~rr_major:0.7 () in
  let at_07 = hex_coef (boot_at ~read_rate:0.7 ()) in
  Alcotest.(check (list string))
    "read_rate 0.7 = runtime fit of cone ~rr_major:0.7"
    (hex_coef
       (Rfid_learn.Supervised.fit_sensor ~read_prob:cone07.Rfid_sim.Truth_sensor.read_prob
          ~seed:99 ()))
    at_07;
  Alcotest.(check bool) "and differs from the default" true (at_07 <> hex_coef at_one)

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
      Alcotest.test_case "bootstrap sensor by read rate" `Quick
        test_bootstrap_sensor_by_read_rate;
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
