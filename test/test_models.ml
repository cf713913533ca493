(* Motion, location sensing, object dynamics, Params, Reader_state. *)
open Rfid_model
open Rfid_geom

let test_motion_sampling () =
  let m = Motion_model.create ~velocity:(Util.vec3 0. 0.1 0.) ~sigma:(Util.vec3 0.01 0.01 0.) () in
  let rng = Util.rng () in
  let start = Reader_state.make ~loc:Vec3.zero ~heading:0. in
  let n = 20000 in
  let sum = ref Vec3.zero in
  for _ = 1 to n do
    let next = Motion_model.sample_next m rng start in
    sum := Vec3.add !sum next.Reader_state.loc
  done;
  let mean = Vec3.scale (1. /. float_of_int n) !sum in
  Util.check_close ~eps:0.002 "mean dx" 0. mean.Vec3.x;
  Util.check_close ~eps:0.002 "mean dy" 0.1 mean.Vec3.y

let test_motion_validation () =
  Util.check_raises_invalid "negative sigma" (fun () ->
      ignore (Motion_model.create ~sigma:(Util.vec3 (-1.) 0. 0.) ()));
  Util.check_raises_invalid "negative heading sigma" (fun () ->
      ignore (Motion_model.create ~heading_sigma:(-0.1) ()))

let test_sensing_roundtrip () =
  let s = Location_sensing.create ~bias:(Util.vec3 0.5 0. 0.) ~sigma:(Util.vec3 0.1 0.1 0.1) () in
  let rng = Util.rng () in
  let truth = Util.vec3 1. 2. 0. in
  let n = 20000 in
  let sum = ref Vec3.zero in
  for _ = 1 to n do
    sum := Vec3.add !sum (Location_sensing.sample_report s rng truth)
  done;
  let mean = Vec3.scale (1. /. float_of_int n) !sum in
  Util.check_close ~eps:0.01 "biased mean x" 1.5 mean.Vec3.x;
  Util.check_close ~eps:0.01 "mean y" 2. mean.Vec3.y;
  (* The likelihood peaks at truth + bias. *)
  let at r =
    let out = [| 0. |] in
    Location_sensing.log_pdf_poses_into s ~reported:r ~rx:(Float.Array.make 1 truth.Vec3.x)
      ~ry:(Float.Array.make 1 truth.Vec3.y) ~rz:(Float.Array.make 1 truth.Vec3.z) ~n:1 out;
    out.(0)
  in
  Alcotest.(check bool) "pdf peak at bias-shifted report" true
    (at (Util.vec3 1.5 2. 0.) > at (Util.vec3 1. 2. 0.))

let test_object_model () =
  let w = Util.two_shelf_world () in
  let rng = Util.rng () in
  let loc = Util.vec3 3. 5. 0. in
  (* alpha = 0: never moves. *)
  let frozen = { Object_model.move_prob = 0. } in
  for _ = 1 to 100 do
    Util.check_vec3 "frozen" loc (Object_model.sample_next frozen w rng loc)
  done;
  (* alpha = 1: always moves, lands on a shelf. *)
  let mover = { Object_model.move_prob = 1. } in
  let moved = ref 0 in
  for _ = 1 to 1000 do
    let next = Object_model.sample_next mover w rng loc in
    if not (Util.vec3_equal next loc) then incr moved;
    if not (World.contains w next) then Alcotest.fail "moved off-shelf"
  done;
  Alcotest.(check bool) "moves nearly always" true (!moved > 990)

let test_params () =
  let p = Params.default in
  Alcotest.(check bool) "default sensor" true (p.Params.sensor = Sensor_model.default);
  let blind = Sensor_model.of_coef [| 0.; 0.; 0.; 0.; 0. |] in
  let custom = Params.create ~sensor:blind () in
  Alcotest.(check bool) "override" true (custom.Params.sensor = blind);
  Alcotest.(check bool) "default object model" true
    (custom.Params.objects = Object_model.default);
  (* pp does not raise *)
  ignore (Format.asprintf "%a" Params.pp p)

let suite =
  ( "component_models",
    [
      Alcotest.test_case "motion sampling moments" `Quick test_motion_sampling;
      Alcotest.test_case "motion validation" `Quick test_motion_validation;
      Alcotest.test_case "location sensing" `Quick test_sensing_roundtrip;
      Alcotest.test_case "object dynamics" `Quick test_object_model;
      Alcotest.test_case "params assembly" `Quick test_params;
    ] )
