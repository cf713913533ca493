open Rfid_model

let test_coef_roundtrip () =
  let m = Sensor_model.default in
  let m' = Sensor_model.of_coef (Sensor_model.to_coef m) in
  Alcotest.(check bool) "roundtrip" true (m = m');
  Util.check_raises_invalid "bad length" (fun () ->
      ignore (Sensor_model.of_coef [| 1.; 2. |]))

let test_features () =
  let f = Sensor_model.features ~d:2. ~theta:(-0.5) in
  Alcotest.(check int) "feature length" 5 (Array.length f);
  Util.check_close "intercept" 1. f.(0);
  Util.check_close "d" 2. f.(1);
  Util.check_close "d^2" 4. f.(2);
  Util.check_close "|theta|" 0.5 f.(3);
  Util.check_close "theta^2" 0.25 f.(4)

let test_monotone_decay () =
  let m = Sensor_model.default in
  let p0 = Sensor_model.read_prob_at m ~d:0.5 ~theta:0. in
  let p1 = Sensor_model.read_prob_at m ~d:2. ~theta:0. in
  let p2 = Sensor_model.read_prob_at m ~d:5. ~theta:0. in
  Alcotest.(check bool) "decays with distance" true (p0 > p1 && p1 > p2);
  let q1 = Sensor_model.read_prob_at m ~d:1. ~theta:0.2 in
  let q2 = Sensor_model.read_prob_at m ~d:1. ~theta:1.0 in
  Alcotest.(check bool) "decays with angle" true (q1 > q2);
  Alcotest.(check bool) "angle symmetric" true
    (Sensor_model.read_prob_at m ~d:1. ~theta:0.5
    = Sensor_model.read_prob_at m ~d:1. ~theta:(-0.5))

let test_geometry () =
  let reader_loc = Util.vec3 0. 0. 0. in
  let d, theta =
    Sensor_model.geometry ~reader_loc ~reader_heading:0. ~tag_loc:(Util.vec3 3. 0. 4.)
  in
  Util.check_close "3d distance" 5. d;
  Util.check_close ~eps:1e-9 "head-on angle" 0. theta;
  let _, theta_side =
    Sensor_model.geometry ~reader_loc ~reader_heading:0. ~tag_loc:(Util.vec3 0. 2. 0.)
  in
  Util.check_close ~eps:1e-9 "side angle" (Float.pi /. 2.) theta_side;
  (* Tag at the reader's own position: defined as angle 0. *)
  let d0, th0 = Sensor_model.geometry ~reader_loc ~reader_heading:1. ~tag_loc:reader_loc in
  Util.check_close "self distance" 0. d0;
  Util.check_close "self angle" 0. th0;
  (* Heading wrap: tag just across the -pi seam. *)
  let _, thw =
    Sensor_model.geometry ~reader_loc ~reader_heading:Float.pi
      ~tag_loc:(Util.vec3 (-1.) (-0.001) 0.)
  in
  Alcotest.(check bool) "wrapped angle small" true (thw < 0.01)

let test_log_prob_consistency () =
  let m = Sensor_model.default in
  let reader_loc = Util.vec3 0. 0. 0. and tag_loc = Util.vec3 1.5 0.3 0. in
  let p = Sensor_model.read_prob m ~reader_loc ~reader_heading:0. ~tag_loc in
  Util.check_close ~eps:1e-9 "log p(read)" (log p)
    (Sensor_model.log_prob m ~reader_loc ~reader_heading:0. ~tag_loc ~read:true);
  Util.check_close ~eps:1e-9 "log p(miss)" (log (1. -. p))
    (Sensor_model.log_prob m ~reader_loc ~reader_heading:0. ~tag_loc ~read:false)

let test_detection_range () =
  let m = Sensor_model.default in
  let r = Sensor_model.detection_range m in
  (* Just inside the range the probability is above threshold; just
     outside it is below. *)
  Alcotest.(check bool) "inside above" true
    (Sensor_model.read_prob_at m ~d:(r -. 0.05) ~theta:0. >= 0.02);
  Alcotest.(check bool) "outside below" true
    (Sensor_model.read_prob_at m ~d:(r +. 0.05) ~theta:0. < 0.02);
  (* A model that never reads anything. *)
  let dead = Sensor_model.of_coef [| -10.; 0.; 0.; 0.; 0. |] in
  Util.check_close "dead model range" 0. (Sensor_model.detection_range dead);
  (* A model with no distance decay saturates at the search cap. *)
  let flat = Sensor_model.of_coef [| 3.; 0.; 0.; -1.; -1. |] in
  Util.check_close "flat model range" 100. (Sensor_model.detection_range flat)

let test_detection_half_angle () =
  let m = Sensor_model.default in
  let a = Sensor_model.detection_half_angle m ~d:1. in
  Alcotest.(check bool) "inside above" true
    (Sensor_model.read_prob_at m ~d:1. ~theta:(a -. 0.01) >= 0.02);
  Alcotest.(check bool) "outside below" true
    (Sensor_model.read_prob_at m ~d:1. ~theta:(a +. 0.01) < 0.02);
  (* Omnidirectional in angle at close range. *)
  let omni = Sensor_model.of_coef [| 5.; -1.; 0.; 0.; 0. |] in
  Util.check_close "omni half angle" Float.pi
    (Sensor_model.detection_half_angle omni ~d:0.5)

let test_sensing_region_box () =
  (* Every reader-relative point the default model reads with
     probability >= 0.02 lies in the box of half-width detection_range
     around the reader: the sensing region's bounding box. *)
  let m = Sensor_model.default in
  let r = Sensor_model.detection_range m in
  let b = Rfid_geom.Box2.of_center (Util.vec3 0. 0. 0.) ~half_width:r ~half_height:r in
  for i = 0 to 200 do
    let d = 2. *. r *. float_of_int i /. 200. in
    for j = -90 to 90 do
      let theta = Float.pi *. float_of_int j /. 90. in
      if Sensor_model.read_prob_at m ~d ~theta >= 0.02 then begin
        let p = Util.vec3 (d *. cos theta) (d *. sin theta) 0. in
        if not (Rfid_geom.Box2.contains_point b p) then
          Alcotest.failf "read at d=%g theta=%g, outside the %g ft box" d theta r
      end
    done
  done

let prop_read_prob_in_unit =
  Util.qcheck "read prob in [0,1] for any coefficients"
    QCheck.(
      pair
        (array_of_size (Gen.return 5) (float_range (-20.) 20.))
        (pair (float_range 0. 50.) (float_range (-4.) 4.)))
    (fun (coef, (d, theta)) ->
      let m = Sensor_model.of_coef coef in
      let p = Sensor_model.read_prob_at m ~d ~theta in
      p >= 0. && p <= 1.)

let set_pose pre i ~x ~y ~z ~heading =
  ignore (Sensor_model.pre_set_pose_checked pre i ~x ~y ~z ~heading)

(* A memo over [n] random poses, with the pose data kept as plain
   arrays for reference computations against [log_prob]. *)
let random_memo ?(n = 24) m rng =
  let pre = Sensor_model.precompute m ~n in
  let poses =
    Array.init n (fun i ->
        let x = Rfid_prob.Rng.uniform rng ~lo:(-10.) ~hi:10. in
        let y = Rfid_prob.Rng.uniform rng ~lo:(-10.) ~hi:10. in
        let z = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:3. in
        let heading = Rfid_prob.Rng.uniform rng ~lo:(-7.) ~hi:7. in
        set_pose pre i ~x ~y ~z ~heading;
        (x, y, z, heading))
  in
  (pre, poses)

let test_memo_bit_identical () =
  let m = Sensor_model.default in
  let rng = Rfid_prob.Rng.create ~seed:77 in
  let pre, poses = random_memo m rng in
  for _ = 1 to 200 do
    let i = Rfid_prob.Rng.int rng (Array.length poses) in
    let x, y, z, heading = poses.(i) in
    let tx = Rfid_prob.Rng.uniform rng ~lo:(-12.) ~hi:12. in
    let ty = Rfid_prob.Rng.uniform rng ~lo:(-12.) ~hi:12. in
    let tz = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:3. in
    let read = Rfid_prob.Rng.bool rng in
    let expected =
      Sensor_model.log_prob m ~reader_loc:(Util.vec3 x y z) ~reader_heading:heading
        ~tag_loc:(Util.vec3 tx ty tz) ~read
    in
    Alcotest.(check (float 0.)) "log_prob_pre bit-identical to log_prob" expected
      (Sensor_model.log_prob_pre pre i ~tx ~ty ~tz ~read)
  done;
  Util.check_raises_invalid "pose index out of range" (fun () ->
      ignore (Sensor_model.log_prob_pre pre (-1) ~tx:0. ~ty:0. ~tz:0. ~read:true))

let test_accumulate_store_matches_per_particle () =
  let m = Sensor_model.default in
  let rng = Rfid_prob.Rng.create ~seed:78 in
  let pre, _ = random_memo m rng in
  let k = 60 in
  let store = Rfid_prob.Particle_store.create ~n:k in
  let reference = Array.make k 0. in
  for i = 0 to k - 1 do
    let x = Rfid_prob.Rng.uniform rng ~lo:(-12.) ~hi:12. in
    let y = Rfid_prob.Rng.uniform rng ~lo:(-12.) ~hi:12. in
    let z = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:3. in
    let lw0 = Rfid_prob.Rng.uniform rng ~lo:(-1.) ~hi:0. in
    Rfid_prob.Particle_store.set_loc store i ~x ~y ~z;
    Rfid_prob.Particle_store.set_log_w store i lw0;
    Rfid_prob.Particle_store.set_reader store i
      (Rfid_prob.Rng.int rng (Sensor_model.pre_size pre));
    reference.(i) <- lw0
  done;
  List.iter
    (fun read ->
      for i = 0 to k - 1 do
        reference.(i) <-
          reference.(i)
          +. Sensor_model.log_prob_pre pre
               (Rfid_prob.Particle_store.reader store i)
               ~tx:(Rfid_prob.Particle_store.x store i)
               ~ty:(Rfid_prob.Particle_store.y store i)
               ~tz:(Rfid_prob.Particle_store.z store i)
               ~read
      done;
      ignore (Sensor_model.pre_accumulate_store pre store ~read : int);
      for i = 0 to k - 1 do
        Alcotest.(check (float 0.)) "store accumulation bit-identical" reference.(i)
          (Rfid_prob.Particle_store.log_w store i)
      done)
    [ true; false ]

let test_accumulate_tag_matches_per_pose () =
  let m = Sensor_model.default in
  let rng = Rfid_prob.Rng.create ~seed:79 in
  let pre, _ = random_memo m rng in
  let n = Sensor_model.pre_size pre in
  let tx = 1.5 and ty = -2.25 and tz = 1. in
  let miss_weight = 0.35 in
  List.iter
    (fun read ->
      let got = Array.make n 0.125 in
      let expected = Array.make n 0.125 in
      for r = 0 to n - 1 do
        let l = Sensor_model.log_prob_pre pre r ~tx ~ty ~tz ~read in
        let l = if read then l else miss_weight *. l in
        expected.(r) <- expected.(r) +. l
      done;
      ignore (Sensor_model.pre_accumulate_tag pre ~tx ~ty ~tz ~read ~miss_weight got : int);
      Alcotest.(check (array (float 0.))) "tag accumulation bit-identical" expected got)
    [ true; false ];
  Util.check_raises_invalid "short accumulator" (fun () ->
      ignore
        (Sensor_model.pre_accumulate_tag pre ~tx ~ty ~tz ~read:true ~miss_weight:1.
           (Array.make (n - 1) 0.)
          : int))

let test_accumulate_joint_matches_per_row () =
  let m = Sensor_model.default in
  let rng = Rfid_prob.Rng.create ~seed:80 in
  let pre, _ = random_memo ~n:8 m rng in
  let n = Sensor_model.pre_size pre in
  let num_objects = 5 in
  let store = Rfid_prob.Particle_store.create ~n:(n * num_objects) in
  for s = 0 to (n * num_objects) - 1 do
    Rfid_prob.Particle_store.set_loc store s
      ~x:(Rfid_prob.Rng.uniform rng ~lo:(-12.) ~hi:12.)
      ~y:(Rfid_prob.Rng.uniform rng ~lo:(-12.) ~hi:12.)
      ~z:(Rfid_prob.Rng.uniform rng ~lo:0. ~hi:3.)
  done;
  List.iter
    (fun read ->
      let obj = 3 in
      let got = Array.make n 0. in
      let expected = Array.make n 0. in
      for r = 0 to n - 1 do
        let s = (r * num_objects) + obj in
        expected.(r) <-
          expected.(r)
          +. Sensor_model.log_prob_pre pre r
               ~tx:(Rfid_prob.Particle_store.x store s)
               ~ty:(Rfid_prob.Particle_store.y store s)
               ~tz:(Rfid_prob.Particle_store.z store s)
               ~read
      done;
      ignore (Sensor_model.pre_accumulate_joint_obj pre store ~obj ~num_objects ~read got : int);
      Alcotest.(check (array (float 0.))) "joint accumulation bit-identical" expected got)
    [ true; false ];
  Util.check_raises_invalid "object out of range" (fun () ->
      ignore
        (Sensor_model.pre_accumulate_joint_obj pre store ~obj:num_objects ~num_objects
           ~read:true (Array.make n 0.)
          : int))

(* --- Exact saturation culling ------------------------------------- *)

let bits = Int64.bits_of_float
let neg_zero_bits = Int64.bits_of_float (-0.0)

let test_exp_underflow_saturates () =
  let z = Rfid_prob.Logistic.exp_underflow in
  Alcotest.(check int64) "miss term saturates to -0.0 at the bound" neg_zero_bits
    (bits (Rfid_prob.Logistic.log_sigmoid (-.z)));
  Alcotest.(check int64) "and stays saturated far below it" neg_zero_bits
    (bits (Rfid_prob.Logistic.log_sigmoid (-.(z -. 1e6))));
  (* Adding -0.0 is a bitwise no-op on either zero — the property the
     cull rests on. *)
  Alcotest.(check int64) "+0.0 accumulator preserved" (bits 0.0) (bits (0.0 +. -0.0));
  Alcotest.(check int64) "-0.0 accumulator preserved" neg_zero_bits
    (bits (-0.0 +. -0.0))

let test_saturation_radius_default () =
  let m = Sensor_model.default in
  let r = Sensor_model.saturation_radius m in
  Alcotest.(check bool) "finite for the default model" true (Float.is_finite r);
  Alcotest.(check bool) "plausible magnitude" true (r > 10. && r < 200.);
  (* Beyond the radius the miss term is exactly -0.0, at any angle. *)
  let reader_loc = Util.vec3 0. 0. 0. in
  List.iter
    (fun (scale, heading) ->
      let d = r *. scale in
      let l =
        Sensor_model.log_prob m ~reader_loc ~reader_heading:heading
          ~tag_loc:(Util.vec3 d 0. 0.) ~read:false
      in
      Alcotest.(check int64)
        (Printf.sprintf "miss saturated at %gx radius" scale)
        neg_zero_bits (bits l))
    [ (1.0000001, 0.); (1.01, 2.5); (2., -3.); (10., 1.) ];
  (* Inside the radius it is not. *)
  let l_in =
    Sensor_model.log_prob m ~reader_loc ~reader_heading:0.
      ~tag_loc:(Util.vec3 (r *. 0.5) 0. 0.) ~read:false
  in
  Alcotest.(check bool) "not saturated at half the radius" true
    (bits l_in <> neg_zero_bits);
  (* Models the closed form does not cover disable culling. *)
  let flat = Sensor_model.of_coef [| 3.; 0.; 0.; -1.; -1. |] in
  Alcotest.(check bool) "no distance decay => infinite radius" true
    (Sensor_model.saturation_radius flat = infinity);
  let nan_model = Sensor_model.of_coef [| Float.nan; -1.; -1.; 0.; 0. |] in
  Alcotest.(check bool) "non-finite coefficient => infinite radius" true
    (Sensor_model.saturation_radius nan_model = infinity);
  (* A model saturated everywhere culls from distance zero. *)
  let dead = Sensor_model.of_coef [| -800.; 0.; -1.; 0.; 0. |] in
  Util.check_close "always-saturated model radius"
    0. (Sensor_model.saturation_radius dead) ~eps:1e-6

let test_accumulate_culls_match_reference () =
  (* Poses near the origin, particles straddling the saturation
     radius: the kernels must report culls and still produce
     bit-identical accumulators. *)
  let m = Sensor_model.default in
  let rng = Rfid_prob.Rng.create ~seed:81 in
  let r = Sensor_model.saturation_radius m in
  let n = 12 in
  let pre = Sensor_model.precompute m ~n in
  for i = 0 to n - 1 do
    set_pose pre i
      ~x:(Rfid_prob.Rng.uniform rng ~lo:(-1.) ~hi:1.)
      ~y:(Rfid_prob.Rng.uniform rng ~lo:(-1.) ~hi:1.)
      ~z:0.
      ~heading:(Rfid_prob.Rng.uniform rng ~lo:(-3.) ~hi:3.)
  done;
  let k = 40 in
  let store = Rfid_prob.Particle_store.create ~n:k in
  for i = 0 to k - 1 do
    let d = r *. Rfid_prob.Rng.uniform rng ~lo:0. ~hi:3. in
    let a = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:6.28 in
    Rfid_prob.Particle_store.set_loc store i ~x:(d *. cos a) ~y:(d *. sin a) ~z:0.;
    Rfid_prob.Particle_store.set_reader store i (Rfid_prob.Rng.int rng n)
  done;
  let reference = Array.make k 0. in
  let expect read =
    for i = 0 to k - 1 do
      reference.(i) <-
        Rfid_prob.Particle_store.log_w store i
        +. Sensor_model.log_prob_pre pre
             (Rfid_prob.Particle_store.reader store i)
             ~tx:(Rfid_prob.Particle_store.x store i)
             ~ty:(Rfid_prob.Particle_store.y store i)
             ~tz:(Rfid_prob.Particle_store.z store i)
             ~read
    done
  in
  expect false;
  let culled = Sensor_model.pre_accumulate_store pre store ~read:false in
  Alcotest.(check bool) "store cull fired" true (culled > 0 && culled < k);
  for i = 0 to k - 1 do
    Alcotest.(check int64) "store bit-identical under cull"
      (bits reference.(i))
      (bits (Rfid_prob.Particle_store.log_w store i))
  done;
  expect true;
  let culled_read = Sensor_model.pre_accumulate_store pre store ~read:true in
  Alcotest.(check int) "read terms never culled" 0 culled_read;
  for i = 0 to k - 1 do
    Alcotest.(check int64) "store read bit-identical"
      (bits reference.(i))
      (bits (Rfid_prob.Particle_store.log_w store i))
  done;
  (* Tag kernel: a distant tag culls every pose, but only when the miss
     weight keeps the scaled term exactly -0.0. *)
  let far = r *. 2. in
  List.iter
    (fun (mw, expect_cull) ->
      let got = Array.init n (fun i -> float_of_int i *. 0.125) in
      let expected =
        Array.mapi
          (fun i acc0 ->
            let l = Sensor_model.log_prob_pre pre i ~tx:far ~ty:0. ~tz:0. ~read:false in
            acc0 +. (mw *. l))
          got
      in
      let culled =
        Sensor_model.pre_accumulate_tag pre ~tx:far ~ty:0. ~tz:0. ~read:false
          ~miss_weight:mw got
      in
      Alcotest.(check int)
        (Printf.sprintf "tag cull count at miss_weight %g" mw)
        (if expect_cull then n else 0)
        culled;
      Array.iteri
        (fun i e ->
          Alcotest.(check int64) "tag bit-identical under cull" (bits e) (bits got.(i)))
        expected)
    [ (1.0, true); (0.35, true); (0.0, true); (-0.5, false) ];
  (* Joint kernel: same distant-location cull. *)
  let num_objects = 3 in
  let jstore = Rfid_prob.Particle_store.create ~n:(n * num_objects) in
  for s = 0 to (n * num_objects) - 1 do
    Rfid_prob.Particle_store.set_loc jstore s ~x:far ~y:0. ~z:0.
  done;
  let got = Array.make n 0.5 in
  let expected =
    Array.init n (fun i ->
        0.5 +. Sensor_model.log_prob_pre pre i ~tx:far ~ty:0. ~tz:0. ~read:false)
  in
  let culled_joint =
    Sensor_model.pre_accumulate_joint_obj pre jstore ~obj:1 ~num_objects ~read:false got
  in
  Alcotest.(check int) "joint cull count" n culled_joint;
  Array.iteri
    (fun i e -> Alcotest.(check int64) "joint bit-identical" (bits e) (bits got.(i)))
    expected

let test_nan_pose_disables_cull () =
  let m = Sensor_model.default in
  let r = Sensor_model.saturation_radius m in
  let pre = Sensor_model.precompute m ~n:4 in
  for i = 0 to 3 do
    set_pose pre i ~x:0. ~y:0. ~z:0. ~heading:0.
  done;
  set_pose pre 2 ~x:0. ~y:0. ~z:0. ~heading:Float.nan;
  let got = Array.make 4 0. in
  let culled =
    Sensor_model.pre_accumulate_tag pre ~tx:(r *. 2.) ~ty:0. ~tz:0. ~read:false
      ~miss_weight:1.0 got
  in
  Alcotest.(check int) "cull disabled while a pose is non-finite" 0 culled;
  Alcotest.(check bool) "NaN pose yields NaN term" true (Float.is_nan got.(2));
  (* Restoring the pose re-enables the cull. *)
  set_pose pre 2 ~x:0. ~y:0. ~z:0. ~heading:0.;
  let got = Array.make 4 0. in
  let culled =
    Sensor_model.pre_accumulate_tag pre ~tx:(r *. 2.) ~ty:0. ~tz:0. ~read:false
      ~miss_weight:1.0 got
  in
  Alcotest.(check int) "cull re-enabled" 4 culled

let test_checked_pose_writes () =
  let m = Sensor_model.default in
  let pre = Sensor_model.precompute m ~n:3 in
  set_pose pre 0 ~x:1. ~y:2. ~z:0. ~heading:0.5;
  Alcotest.(check bool) "identical pose skipped" false
    (Sensor_model.pre_set_pose_checked pre 0 ~x:1. ~y:2. ~z:0. ~heading:0.5);
  (* Zero-sign change is a change: slots start at +0.0. *)
  Alcotest.(check bool) "-0.0 over +0.0 writes" true
    (Sensor_model.pre_set_pose_checked pre 1 ~x:(-0.0) ~y:0. ~z:0. ~heading:0.);
  Alcotest.(check bool) "-0.0 now in place" false
    (Sensor_model.pre_set_pose_checked pre 1 ~x:(-0.0) ~y:0. ~z:0. ~heading:0.);
  (* NaN never compares equal: always a write. *)
  Alcotest.(check bool) "NaN pose writes" true
    (Sensor_model.pre_set_pose_checked pre 2 ~x:0. ~y:0. ~z:0. ~heading:Float.nan);
  Alcotest.(check bool) "NaN pose writes again" true
    (Sensor_model.pre_set_pose_checked pre 2 ~x:0. ~y:0. ~z:0. ~heading:Float.nan)

let prop_cull_bit_identical =
  Util.qcheck ~count:300 "culled tag kernel bit-identical over random models"
    QCheck.(
      pair
        (pair
           (pair (float_range (-10.) 10.) (float_range (-3.) (-0.01)))
           (pair (float_range (-3.) 0.)
              (pair (float_range (-3.) 3.) (float_range (-3.) 3.))))
        (pair
           (pair (float_range 0. 2.5) (float_range (-3.2) 3.2))
           (float_range (-1.) 1.)))
    (fun (((a0, a2), (a1, (b1, b2))), ((f, ang), mw)) ->
      let m = Sensor_model.of_coef [| a0; a1; a2; b1; b2 |] in
      let r = Sensor_model.saturation_radius m in
      (* Tag distances concentrate around the radius (f in [0, 2.5]),
         so points land on both sides of — and straddle — the cut. *)
      let d = (if Float.is_finite r then r else 50.) *. f in
      let n = 5 in
      let pre = Sensor_model.precompute m ~n in
      for i = 0 to n - 1 do
        set_pose pre i
          ~x:(0.3 *. float_of_int i)
          ~y:(-0.2 *. float_of_int i)
          ~z:(0.1 *. float_of_int i)
          ~heading:(ang *. float_of_int i)
      done;
      let tx = d *. cos ang and ty = d *. sin ang and tz = 0.4 in
      List.for_all
        (fun read ->
          let got = Array.init n (fun i -> 0.25 *. float_of_int (i - 2)) in
          let expected =
            Array.mapi
              (fun i acc0 ->
                let l = Sensor_model.log_prob_pre pre i ~tx ~ty ~tz ~read in
                acc0 +. (if read then l else mw *. l))
              got
          in
          ignore
            (Sensor_model.pre_accumulate_tag pre ~tx ~ty ~tz ~read ~miss_weight:mw got
              : int);
          Array.for_all2
            (fun e g -> Int64.bits_of_float e = Int64.bits_of_float g)
            expected got)
        [ true; false ])

let suite =
  ( "sensor_model",
    [
      Alcotest.test_case "coef roundtrip" `Quick test_coef_roundtrip;
      Alcotest.test_case "features" `Quick test_features;
      Alcotest.test_case "monotone decay" `Quick test_monotone_decay;
      Alcotest.test_case "geometry" `Quick test_geometry;
      Alcotest.test_case "log prob consistency" `Quick test_log_prob_consistency;
      Alcotest.test_case "detection range" `Quick test_detection_range;
      Alcotest.test_case "detection half angle" `Quick test_detection_half_angle;
      Alcotest.test_case "sensing region box" `Quick test_sensing_region_box;
      prop_read_prob_in_unit;
      Alcotest.test_case "memo bit-identical to log_prob" `Quick test_memo_bit_identical;
      Alcotest.test_case "batched store accumulation bit-identical" `Quick
        test_accumulate_store_matches_per_particle;
      Alcotest.test_case "batched tag accumulation bit-identical" `Quick
        test_accumulate_tag_matches_per_pose;
      Alcotest.test_case "batched joint accumulation bit-identical" `Quick
        test_accumulate_joint_matches_per_row;
      Alcotest.test_case "exp_underflow saturates exactly" `Quick
        test_exp_underflow_saturates;
      Alcotest.test_case "saturation radius (default model)" `Quick
        test_saturation_radius_default;
      Alcotest.test_case "saturation cull matches reference" `Quick
        test_accumulate_culls_match_reference;
      Alcotest.test_case "NaN pose disables cull" `Quick test_nan_pose_disables_cull;
      Alcotest.test_case "checked pose writes" `Quick test_checked_pose_writes;
      prop_cull_bit_identical;
    ] )
