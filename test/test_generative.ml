open Rfid_model
open Rfid_geom

let run_trace ?(epochs = 50) ?(num_objects = 5) ?(seed = 11) () =
  let world = Util.two_shelf_world () in
  let init_reader = Reader_state.make ~loc:(Util.vec3 0. 0. 0.) ~heading:0. in
  let rng = Rfid_prob.Rng.create ~seed in
  Generative.run ~world ~params:Params.default ~init_reader ~num_objects ~epochs rng

let test_shape () =
  let t = run_trace () in
  Alcotest.(check int) "epochs" 50 (Trace.epochs t);
  Alcotest.(check int) "objects" 5 t.Trace.num_objects;
  Array.iteri
    (fun i s ->
      Alcotest.(check int) "epoch numbering" i s.Trace.epoch;
      Alcotest.(check int) "objs per step" 5 (Array.length s.Trace.true_object_locs);
      Alcotest.(check int) "obs epoch" i s.Trace.observation.Types.o_epoch)
    t.Trace.steps

let test_objects_start_on_shelves () =
  let t = run_trace () in
  let world = t.Trace.world in
  Array.iter
    (fun loc ->
      if not (World.contains world loc) then Alcotest.fail "object off-shelf")
    t.Trace.steps.(0).Trace.true_object_locs

let test_reader_moves_with_velocity () =
  let t = run_trace ~epochs:100 () in
  let first = t.Trace.steps.(0).Trace.true_reader.Reader_state.loc in
  let last = t.Trace.steps.(99).Trace.true_reader.Reader_state.loc in
  (* Default velocity is 0.1 ft/epoch along y. *)
  Util.check_close ~eps:1.0 "y displacement" 9.9 (last.Vec3.y -. first.Vec3.y)

let test_read_rate_matches_sensor () =
  (* A shelf tag right in front of a stationary reader should be read at
     roughly the sensor-model rate. *)
  let world = Util.two_shelf_world () in
  let motion =
    Motion_model.create ~velocity:Vec3.zero ~sigma:(Util.vec3 0.0001 0.0001 0.)
      ~heading_sigma:0. ()
  in
  let params = Params.create ~motion () in
  let init_reader = Reader_state.make ~loc:(Util.vec3 0. 5. 0.) ~heading:0. in
  let rng = Rfid_prob.Rng.create ~seed:3 in
  let epochs = 4000 in
  let t = Generative.run ~world ~params ~init_reader ~num_objects:0 ~epochs rng in
  let reads =
    Array.fold_left
      (fun acc s ->
        acc
        + List.length
            (List.filter
               (fun tag -> tag = Types.Shelf_tag 0)
               s.Trace.observation.Types.o_read_tags))
      0 t.Trace.steps
  in
  let expected =
    Sensor_model.read_prob Params.default.Params.sensor
      ~reader_loc:init_reader.Reader_state.loc ~reader_heading:0.
      ~tag_loc:(World.shelf_tag_location world 0)
  in
  Util.check_close ~eps:0.05 "empirical read rate"
    expected
    (float_of_int reads /. float_of_int epochs)

let test_determinism () =
  let a = run_trace ~seed:5 () and b = run_trace ~seed:5 () in
  Alcotest.(check bool) "same seed same trace" true (a.Trace.steps = b.Trace.steps);
  let c = run_trace ~seed:6 () in
  Alcotest.(check bool) "different seed differs" false (a.Trace.steps = c.Trace.steps)

let test_validation () =
  Util.check_raises_invalid "negative objects" (fun () ->
      ignore (run_trace ~num_objects:(-1) ()));
  Util.check_raises_invalid "negative epochs" (fun () ->
      ignore (run_trace ~epochs:(-1) ()))

let test_trace_accessors () =
  let t = run_trace () in
  let loc = Trace.true_object_loc t ~epoch:10 ~obj:2 in
  Util.check_vec3 "accessor consistent" t.Trace.steps.(10).Trace.true_object_locs.(2) loc;
  Util.check_raises_invalid "bad epoch" (fun () ->
      ignore (Trace.true_object_loc t ~epoch:99 ~obj:0));
  Util.check_raises_invalid "bad object" (fun () ->
      ignore (Trace.true_object_loc t ~epoch:0 ~obj:99));
  Alcotest.(check int) "observations length" 50 (List.length (Trace.observations t));
  Alcotest.(check int) "final locs" 5 (Array.length (Trace.final_object_locs t))

let suite =
  ( "generative",
    [
      Alcotest.test_case "trace shape" `Quick test_shape;
      Alcotest.test_case "objects start on shelves" `Quick
        test_objects_start_on_shelves;
      Alcotest.test_case "reader follows velocity" `Quick test_reader_moves_with_velocity;
      Alcotest.test_case "read rate matches sensor" `Quick test_read_rate_matches_sensor;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "trace accessors" `Quick test_trace_accessors;
    ] )
