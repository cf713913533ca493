(* Unit tests for the core helpers shared by the filters. *)
open Rfid_core
open Rfid_model
open Rfid_geom

let cache () =
  Common.Sensor_cache.create ~threshold:0.02 ~max_range:12. Sensor_model.default

let test_sensor_cache () =
  let c = cache () in
  Util.check_close ~eps:1e-6 "range matches model"
    (Sensor_model.detection_range ~threshold:0.02 Sensor_model.default)
    c.Common.Sensor_cache.range;
  Alcotest.(check bool) "half angle positive" true (c.Common.Sensor_cache.half_angle > 0.);
  (* The cap binds when the model never decays. *)
  let flat = Sensor_model.of_coef [| 3.; 0.; 0.; -1.; -1. |] in
  let capped = Common.Sensor_cache.create ~threshold:0.02 ~max_range:5. flat in
  Util.check_close "cap binds" 5. capped.Common.Sensor_cache.range

let test_init_cone_geometry () =
  (* On a shelf the size of the floor nothing is clamped, so the initial
     samples trace the initialization cone itself: apex at the reader,
     centred on its heading, reaching past the sensing range by the
     overestimate and no further. *)
  let c = cache () in
  let world =
    World.create
      [
        {
          World.shelf_id = 0;
          surface = Box2.make ~min_x:(-100.) ~min_y:(-100.) ~max_x:100. ~max_y:100.;
          height = 0.;
          tag = None;
        };
      ]
  in
  let rng = Util.rng () in
  let apex = Util.vec3 1. 2. 0. in
  let reach = 1.25 *. c.Common.Sensor_cache.range in
  let far = ref 0. and sx = ref 0. and sy = ref 0. in
  for _ = 1 to 2000 do
    let p =
      Common.sample_initial_location c ~overestimate:1.25 ~world ~reader_loc:apex
        ~heading:0.7 rng
    in
    let d = Vec3.dist_xy p apex in
    if d > reach +. 1e-9 then Alcotest.failf "sample %g ft out, past the %g ft cone" d reach;
    far := Float.max !far d;
    sx := !sx +. (p.Vec3.x -. apex.Vec3.x);
    sy := !sy +. (p.Vec3.y -. apex.Vec3.y)
  done;
  Alcotest.(check bool) "overestimated range" true (!far > c.Common.Sensor_cache.range);
  Util.check_close ~eps:0.05 "heading" 0.7 (atan2 !sy !sx)

let test_sample_initial_location_on_shelves () =
  let world = Util.two_shelf_world () in
  let c = cache () in
  let rng = Util.rng () in
  for _ = 1 to 500 do
    let p =
      Common.sample_initial_location c ~overestimate:1.25 ~world
        ~reader_loc:(Util.vec3 0. 5. 0.) ~heading:0. rng
    in
    if not (World.contains world p) then Alcotest.fail "initial sample off-shelf"
  done

(* The batched initialization sampler must reproduce the scalar
   reference path — categorical reader draw, then
   [sample_initial_location] from that reader's pose — draw for draw
   and bit for bit, since the golden traces pin the filter's output at
   that level. *)
let fill_setup () =
  let world = Util.two_shelf_world () in
  let c = cache () in
  let j = 5 in
  let pre = Sensor_model.precompute Sensor_model.default ~n:j in
  for p = 0 to j - 1 do
    ignore
      (Sensor_model.pre_set_pose_checked pre p ~x:(0.5 *. float_of_int p)
         ~y:(4. +. (0.3 *. float_of_int p))
         ~z:0.2
         ~heading:(0.4 *. float_of_int p))
  done;
  let rw = [| 0.1; 0.3; 0.2; 0.25; 0.15 |] in
  (world, c, pre, rw)

let reference_fresh world c pre rw rng i =
  let rx, ry, rz, rh = Sensor_model.pre_poses pre in
  ignore i;
  let idx = Rfid_prob.Rng.categorical rng rw in
  let reader_loc =
    Util.vec3 (Float.Array.get rx idx) (Float.Array.get ry idx) (Float.Array.get rz idx)
  in
  let loc =
    Common.sample_initial_location c ~overestimate:1.25 ~world ~reader_loc
      ~heading:(Float.Array.get rh idx) rng
  in
  (idx, loc)

let check_bits what expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: %.17g and %.17g differ bitwise" what expected actual

let test_fill_fresh_particles_bit_identical () =
  let world, c, pre, rw = fill_setup () in
  let n = 64 in
  let store = Rfid_prob.Particle_store.create ~n in
  let rng_batch = Rfid_prob.Rng.create ~seed:99 in
  let rng_ref = Rfid_prob.Rng.create ~seed:99 in
  Common.fill_fresh_particles c ~overestimate:1.25 ~world ~pre ~rw ~rng:rng_batch
    ~store ~step:1;
  for i = 0 to n - 1 do
    let idx, loc = reference_fresh world c pre rw rng_ref i in
    Alcotest.(check int) "reader pointer" idx (Rfid_prob.Particle_store.reader store i);
    check_bits "x" loc.Vec3.x (Rfid_prob.Particle_store.x store i);
    check_bits "y" loc.Vec3.y (Rfid_prob.Particle_store.y store i);
    check_bits "z" loc.Vec3.z (Rfid_prob.Particle_store.z store i);
    check_bits "log_w" 0. (Rfid_prob.Particle_store.log_w store i)
  done;
  (* Exhausted the same number of draws. *)
  Alcotest.(check bool) "rng states agree" true
    (Rfid_prob.Rng.state rng_batch = Rfid_prob.Rng.state rng_ref)

let test_fill_fresh_particles_half () =
  let world, c, pre, rw = fill_setup () in
  let n = 32 in
  let store = Rfid_prob.Particle_store.create ~n in
  for i = 0 to n - 1 do
    Rfid_prob.Particle_store.set_loc store i ~x:(float_of_int i) ~y:(-1.) ~z:7.;
    Rfid_prob.Particle_store.set_reader store i 3;
    Rfid_prob.Particle_store.set_log_w store i 0.25
  done;
  let rng_batch = Rfid_prob.Rng.create ~seed:7 in
  let rng_ref = Rfid_prob.Rng.create ~seed:7 in
  Common.fill_fresh_particles c ~overestimate:1.25 ~world ~pre ~rw ~rng:rng_batch
    ~store ~step:2;
  for i = 0 to n - 1 do
    if i mod 2 = 0 then begin
      let idx, loc = reference_fresh world c pre rw rng_ref i in
      Alcotest.(check int) "even slot redrawn" idx
        (Rfid_prob.Particle_store.reader store i);
      check_bits "even x" loc.Vec3.x (Rfid_prob.Particle_store.x store i);
      check_bits "even log_w reset" 0. (Rfid_prob.Particle_store.log_w store i)
    end
    else begin
      check_bits "odd x untouched" (float_of_int i) (Rfid_prob.Particle_store.x store i);
      Alcotest.(check int) "odd pointer untouched" 3
        (Rfid_prob.Particle_store.reader store i);
      check_bits "odd log_w untouched" 0.25 (Rfid_prob.Particle_store.log_w store i)
    end
  done;
  Util.check_raises_invalid "step 0" (fun () ->
      Common.fill_fresh_particles c ~overestimate:1.25 ~world ~pre ~rw ~rng:rng_batch
        ~store ~step:0)

let test_propose_heading_known () =
  let rng = Util.rng () in
  let h =
    Common.propose_heading
      (Config.Known_heading (fun e -> float_of_int e *. 0.1))
      ~motion:Motion_model.default ~epoch:7 ~current:99. rng
  in
  Util.check_close "known heading ignores current" 0.7 h

let test_propose_heading_track () =
  let rng = Util.rng () in
  let motion = Motion_model.create ~heading_sigma:0.01 () in
  (* With jump_prob 0 the heading random-walks near the current value. *)
  let drifts =
    Array.init 200 (fun _ ->
        Common.propose_heading
          (Config.Track_heading { jump_prob = 0. })
          ~motion ~epoch:0 ~current:1.0 rng)
  in
  Array.iter (fun h -> Util.check_in_range "small drift" ~lo:0.9 ~hi:1.1 h) drifts;
  (* With jump_prob 1 every proposal is a fresh uniform angle. *)
  let jumps =
    Array.init 200 (fun _ ->
        Common.propose_heading
          (Config.Track_heading { jump_prob = 1. })
          ~motion ~epoch:0 ~current:1.0 rng)
  in
  let far = Array.exists (fun h -> Float.abs (h -. 1.0) > 1.5) jumps in
  Alcotest.(check bool) "jumps reach far headings" true far

let test_proposal_delta () =
  let motion = Motion_model.create ~velocity:(Util.vec3 0. 0.1 0.) () in
  let d1 =
    Common.proposal_delta Config.From_velocity ~motion ~last_reported:None
      ~reported:(Util.vec3 9. 9. 0.)
  in
  Util.check_vec3 "velocity mode" (Util.vec3 0. 0.1 0.) d1;
  let d2 =
    Common.proposal_delta Config.From_reported_displacement ~motion
      ~last_reported:(Some (Util.vec3 1. 1. 0.))
      ~reported:(Util.vec3 1.5 2. 0.)
  in
  Util.check_vec3 "displacement mode" (Util.vec3 0.5 1. 0.) d2;
  (* Without a previous report the displacement mode falls back to the
     velocity. *)
  let d3 =
    Common.proposal_delta Config.From_reported_displacement ~motion ~last_reported:None
      ~reported:(Util.vec3 5. 5. 0.)
  in
  Util.check_vec3 "fallback" (Util.vec3 0. 0.1 0.) d3

let test_proposal_sigma_control_input () =
  let motion = Motion_model.create ~sigma:(Util.vec3 0.01 0.02 0.) () in
  let sensing = Location_sensing.create ~sigma:(Util.vec3 0.1 0.2 0.) () in
  let s_vel = Common.proposal_sigma Config.From_velocity ~motion ~sensing in
  Util.check_vec3 "velocity mode keeps motion sigma" (Util.vec3 0.01 0.02 0.) s_vel;
  let s_disp = Common.proposal_sigma Config.From_reported_displacement ~motion ~sensing in
  Util.check_close ~eps:1e-9 "x widened" (sqrt ((0.01 ** 2.) +. (2. *. (0.1 ** 2.)))) s_disp.Vec3.x;
  Util.check_close ~eps:1e-9 "y widened" (sqrt ((0.02 ** 2.) +. (2. *. (0.2 ** 2.)))) s_disp.Vec3.y;
  Util.check_close "unobserved axis stays zero" 0. s_disp.Vec3.z

let test_resample_dispatch () =
  let rng = Util.rng () in
  let w = [| 0.5; 0.5 |] in
  List.iter
    (fun scheme ->
      let idx = Array.make 12 (-1) in
      Common.resample_into scheme rng w ~n:10 ~out:idx;
      Alcotest.(check int) "n indices written" (-1) idx.(10);
      let idx = Array.sub idx 0 10 in
      Array.iter (fun i -> Util.check_in_range "valid" ~lo:0. ~hi:1. (float_of_int i)) idx)
    [ Config.Systematic; Config.Multinomial; Config.Residual ]

let test_jitter_moments () =
  let rng = Util.rng () in
  let n = 20000 in
  let sum = ref Vec3.zero in
  for _ = 1 to n do
    sum :=
      Vec3.add !sum
        (Common.jitter (Util.vec3 1. 2. 3.) ~sigma:(Util.vec3 0.1 0.2 0.) rng)
  done;
  let mean = Vec3.scale (1. /. float_of_int n) !sum in
  Util.check_close ~eps:0.01 "mean x" 1. mean.Vec3.x;
  Util.check_close ~eps:0.01 "mean y" 2. mean.Vec3.y;
  Util.check_close ~eps:1e-12 "zero-sigma axis untouched" 3. mean.Vec3.z

let suite =
  ( "core_common",
    [
      Alcotest.test_case "sensor cache" `Quick test_sensor_cache;
      Alcotest.test_case "init cone geometry" `Quick test_init_cone_geometry;
      Alcotest.test_case "initial samples on shelves" `Quick
        test_sample_initial_location_on_shelves;
      Alcotest.test_case "batched fresh particles bit-identical" `Quick
        test_fill_fresh_particles_bit_identical;
      Alcotest.test_case "batched fresh particles half-redraw" `Quick
        test_fill_fresh_particles_half;
      Alcotest.test_case "known heading" `Quick test_propose_heading_known;
      Alcotest.test_case "tracked heading" `Quick test_propose_heading_track;
      Alcotest.test_case "proposal delta" `Quick test_proposal_delta;
      Alcotest.test_case "proposal sigma (control input)" `Quick
        test_proposal_sigma_control_input;
      Alcotest.test_case "resample dispatch" `Quick test_resample_dispatch;
      Alcotest.test_case "jitter moments" `Quick test_jitter_moments;
    ] )
