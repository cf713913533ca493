open Rfid_geom

(* Vec3 *)

let test_vec_arithmetic () =
  let a = Util.vec3 1. 2. 3. and b = Util.vec3 4. (-5.) 6. in
  Util.check_vec3 "add" (Util.vec3 5. (-3.) 9.) (Vec3.add a b);
  Util.check_vec3 "sub" (Util.vec3 (-3.) 7. (-3.)) (Vec3.sub a b);
  Util.check_vec3 "scale" (Util.vec3 2. 4. 6.) (Vec3.scale 2. a);
  Util.check_close "norm" (sqrt 14.) (Vec3.norm a);
  Util.check_close "dist" (Vec3.norm (Vec3.sub a b)) (Vec3.dist a b)

let test_vec_xy () =
  let a = Util.vec3 0. 0. 0. and b = Util.vec3 3. 4. 100. in
  Util.check_close "dist_xy ignores z" 5. (Vec3.dist_xy a b);
  Util.check_close "xy_angle" (Float.pi /. 2.) (Vec3.xy_angle (Util.vec3 0. 1. 0.))

let test_vec_of_array () =
  Util.check_vec3 "of_array" (Util.vec3 1. 2. 3.) (Vec3.of_array [| 1.; 2.; 3. |]);
  Util.check_raises_invalid "bad array" (fun () -> Vec3.of_array [| 1. |])

(* Box2 *)

let box a b c d = Box2.make ~min_x:a ~min_y:b ~max_x:c ~max_y:d

let test_box_make_invalid () =
  Util.check_raises_invalid "inverted x" (fun () -> box 1. 0. 0. 1.);
  Util.check_raises_invalid "nan" (fun () -> box Float.nan 0. 1. 1.)

let test_box_contains_intersects () =
  let b = box 0. 0. 2. 2. in
  Alcotest.(check bool) "inside" true (Box2.contains_point b (Util.vec3 1. 1. 5.));
  Alcotest.(check bool) "boundary inclusive" true
    (Box2.contains_point b (Util.vec3 2. 0. 0.));
  Alcotest.(check bool) "outside" false (Box2.contains_point b (Util.vec3 2.1 1. 0.));
  Alcotest.(check bool) "overlap" true (Box2.intersects b (box 1. 1. 3. 3.));
  Alcotest.(check bool) "shared edge counts" true (Box2.intersects b (box 2. 0. 3. 2.));
  Alcotest.(check bool) "disjoint" false (Box2.intersects b (box 3. 3. 4. 4.))

let test_box_union_area () =
  let u = Box2.union (box 0. 0. 1. 1.) (box 2. 2. 3. 4.) in
  Util.check_close "union area" 12. (Box2.area u)

let test_box_inflate_of_center () =
  let infl = Box2.inflate (box 0. 0. 2. 2.) 1. in
  Util.check_close "inflated area" 16. (Box2.area infl);
  Alcotest.(check bool) "of_center" true
    (Box2.of_center (Util.vec3 1. 1. 5.) ~half_width:1. ~half_height:1. = box 0. 0. 2. 2.)

(* Cone *)

let test_cone_contains () =
  let c =
    Cone.make ~apex:Vec3.zero ~heading:0. ~half_angle:(Float.pi /. 6.) ~range:3.
  in
  Alcotest.(check bool) "head-on inside" true (Cone.contains c (Util.vec3 2. 0. 0.));
  Alcotest.(check bool) "apex inside" true (Cone.contains c Vec3.zero);
  Alcotest.(check bool) "beyond range" false (Cone.contains c (Util.vec3 4. 0. 0.));
  Alcotest.(check bool) "behind" false (Cone.contains c (Util.vec3 (-1.) 0. 0.));
  Alcotest.(check bool) "wide angle" false (Cone.contains c (Util.vec3 1. 1. 0.))

let test_cone_relative_angle () =
  (* Membership turns on the angle between the heading and the
     apex-to-point direction, on either side of the heading. *)
  let c = Cone.make ~apex:Vec3.zero ~heading:(Float.pi /. 2.) ~half_angle:1. ~range:5. in
  let at angle = Util.vec3 (3. *. cos (Float.pi /. 2. +. angle)) (3. *. sin (Float.pi /. 2. +. angle)) 0. in
  Alcotest.(check bool) "straight up" true (Cone.contains c (at 0.));
  Alcotest.(check bool) "just inside, left" true (Cone.contains c (at 0.99));
  Alcotest.(check bool) "just inside, right" true (Cone.contains c (at (-0.99)));
  Alcotest.(check bool) "just outside, left" false (Cone.contains c (at 1.01));
  Alcotest.(check bool) "just outside, right" false (Cone.contains c (at (-1.01)));
  Alcotest.(check bool) "right angle" false (Cone.contains c (Util.vec3 3. 0. 0.))

let test_cone_heading_wrap () =
  (* Heading near pi: a point across the -pi/pi seam must still read as
     a small relative angle. *)
  let c = Cone.make ~apex:Vec3.zero ~heading:Float.pi ~half_angle:0.5 ~range:5. in
  Alcotest.(check bool) "across seam" true (Cone.contains c (Util.vec3 (-3.) (-0.1) 0.))

let test_cone_samples_inside () =
  let rng = Util.rng () in
  let c = Cone.make ~apex:(Util.vec3 1. 2. 0.) ~heading:0.7 ~half_angle:0.4 ~range:2.5 in
  for _ = 1 to 2000 do
    let p = Cone.sample c rng in
    if not (Cone.contains c p) then
      Alcotest.failf "sample escaped cone: %s" (Format.asprintf "%a" Vec3.pp p)
  done

let test_cone_invalid () =
  Util.check_raises_invalid "zero half angle" (fun () ->
      Cone.make ~apex:Vec3.zero ~heading:0. ~half_angle:0. ~range:1.);
  Util.check_raises_invalid "zero range" (fun () ->
      Cone.make ~apex:Vec3.zero ~heading:0. ~half_angle:1. ~range:0.)

let prop_cone_sample_contained =
  Util.qcheck ~count:100 "cone samples stay inside"
    QCheck.(quad small_int (float_range (-3.) 3.) (float_range 0.1 3.) (float_range 0.5 4.))
    (fun (seed, heading, half_angle, range) ->
      let rng = Rfid_prob.Rng.create ~seed in
      let c = Cone.make ~apex:(Util.vec3 0.5 (-0.5) 0.) ~heading ~half_angle ~range in
      let ok = ref true in
      for _ = 1 to 50 do
        if not (Cone.contains c (Cone.sample c rng)) then ok := false
      done;
      !ok)

let suite =
  ( "geom",
    [
      Alcotest.test_case "vec arithmetic" `Quick test_vec_arithmetic;
      Alcotest.test_case "vec xy projections" `Quick test_vec_xy;
      Alcotest.test_case "vec lerp/array" `Quick test_vec_of_array;
      Alcotest.test_case "box validation" `Quick test_box_make_invalid;
      Alcotest.test_case "box contains/intersects" `Quick test_box_contains_intersects;
      Alcotest.test_case "box union/area" `Quick test_box_union_area;
      Alcotest.test_case "box of_points/inflate/center" `Quick test_box_inflate_of_center;
      Alcotest.test_case "cone contains" `Quick test_cone_contains;
      Alcotest.test_case "cone relative angle" `Quick test_cone_relative_angle;
      Alcotest.test_case "cone heading wrap" `Quick test_cone_heading_wrap;
      Alcotest.test_case "cone samples inside" `Quick test_cone_samples_inside;
      Alcotest.test_case "cone validation" `Quick test_cone_invalid;
      prop_cone_sample_contained;
    ] )
