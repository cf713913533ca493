open Rfid_sim
open Rfid_model
open Rfid_geom

(* Truth sensors *)

let test_cone_sensor_shape () =
  let s = Truth_sensor.cone ~rr_major:0.9 () in
  let p = s.Truth_sensor.read_prob in
  Util.check_close "major uniform" 0.9 (p ~d:1. ~theta:0.1);
  Util.check_close "major boundary" 0.9 (p ~d:2.9 ~theta:(14. *. Float.pi /. 180.));
  Util.check_close "beyond range" 0. (p ~d:3.1 ~theta:0.);
  Util.check_close "beyond minor angle" 0. (p ~d:1. ~theta:0.5);
  (* Minor range decays linearly from rr_major to 0. *)
  let mid = (15. +. 22.5) /. 2. *. Float.pi /. 180. in
  Util.check_close ~eps:1e-6 "minor midpoint" 0.45 (p ~d:1. ~theta:mid);
  (* Negative angle symmetric *)
  Util.check_close "symmetric" (p ~d:1. ~theta:0.2) (p ~d:1. ~theta:(-0.2));
  Util.check_raises_invalid "bad rr" (fun () -> ignore (Truth_sensor.cone ~rr_major:1.5 ()))

let test_spherical_sensor_shape () =
  let s = Truth_sensor.spherical ~rr_center:0.8 ~range:4. ~angle_falloff:2. () in
  let p = s.Truth_sensor.read_prob in
  Util.check_close "center" 0.8 (p ~d:1. ~theta:0.);
  Alcotest.(check bool) "wide angle still reads" true (p ~d:1. ~theta:1.5 > 0.);
  Util.check_close "angle falloff zero" 0. (p ~d:1. ~theta:2.1);
  Util.check_close "beyond range" 0. (p ~d:4.5 ~theta:0.);
  (* Radial fade over last 20%. *)
  Alcotest.(check bool) "fade near edge" true (p ~d:3.9 ~theta:0. < p ~d:3. ~theta:0.)

let test_sensor_probabilities_valid () =
  List.iter
    (fun s ->
      for i = 0 to 50 do
        for j = 0 to 20 do
          let d = float_of_int i /. 10. and theta = float_of_int j /. 20. *. Float.pi in
          let p = s.Truth_sensor.read_prob ~d ~theta in
          Util.check_in_range "prob" ~lo:0. ~hi:1. p
        done
      done)
    [ Truth_sensor.cone (); Truth_sensor.spherical () ]

(* Warehouse *)

let test_warehouse_layout () =
  let wh = Warehouse.layout ~num_objects:25 () in
  Alcotest.(check int) "3 shelves for 25 objects" 3
    (Array.length (World.shelves wh.Warehouse.world));
  Alcotest.(check int) "objects" 25 (Array.length wh.Warehouse.object_locs);
  (* Objects are on shelves and evenly spaced. *)
  Array.iteri
    (fun i loc ->
      if not (World.contains wh.Warehouse.world loc) then
        Alcotest.failf "object %d off-shelf" i)
    wh.Warehouse.object_locs;
  let spacing =
    wh.Warehouse.object_locs.(1).Vec3.y -. wh.Warehouse.object_locs.(0).Vec3.y
  in
  Util.check_close "spacing" 0.5 spacing;
  Util.check_raises_invalid "zero objects" (fun () ->
      ignore (Warehouse.layout ~num_objects:0 ()))

let test_warehouse_shelf_tags_known () =
  let wh = Warehouse.layout ~num_objects:30 () in
  Alcotest.(check int) "tag per shelf" (Array.length (World.shelves wh.Warehouse.world))
    (List.length (World.shelf_tags wh.Warehouse.world))

(* Trace_gen *)

let gen_trace ?(config = Trace_gen.default_config ()) ?(rounds = 1) ?(seed = 9)
    ?(num_objects = 12) () =
  let wh = Warehouse.layout ~num_objects () in
  let path = Trace_gen.straight_pass wh ~rounds in
  let rng = Rfid_prob.Rng.create ~seed in
  ( wh,
    Trace_gen.run ~world:wh.Warehouse.world ~object_locs:wh.Warehouse.object_locs
      ~start:(Warehouse.reader_start wh) ~path ~config rng )

let test_trace_structure () =
  let _, t = gen_trace () in
  Alcotest.(check bool) "has epochs" true (Trace.epochs t > 50);
  Array.iteri
    (fun i s -> Alcotest.(check int) "sequential epochs" i s.Trace.epoch)
    t.Trace.steps

let test_trace_objects_get_read () =
  let _, t = gen_trace () in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      List.iter
        (fun tag ->
          match tag with
          | Types.Object_tag i -> Hashtbl.replace seen i ()
          | Types.Shelf_tag _ -> ())
        s.Trace.observation.Types.o_read_tags)
    t.Trace.steps;
  (* With a full pass at 100% major read rate every object is read. *)
  Alcotest.(check int) "all objects read" 12 (Hashtbl.length seen)

let test_trace_rounds_double_epochs () =
  let _, t1 = gen_trace ~rounds:1 () in
  let _, t2 = gen_trace ~rounds:2 () in
  Alcotest.(check int) "two rounds" (2 * Trace.epochs t1) (Trace.epochs t2)

let test_read_every () =
  let config = { (Trace_gen.default_config ()) with Trace_gen.read_every = 3 } in
  let _, t = gen_trace ~config () in
  Array.iter
    (fun s ->
      if s.Trace.epoch mod 3 <> 0 then
        Alcotest.(check (list pass)) "no reads off-cycle" []
          s.Trace.observation.Types.o_read_tags)
    t.Trace.steps

let test_movement_injection () =
  let target = Util.vec3 2.5 1.25 0. in
  let config =
    {
      (Trace_gen.default_config ()) with
      Trace_gen.movements = [ { Trace_gen.move_epoch = 30; move_obj = 4; move_to = target } ];
    }
  in
  let _, t = gen_trace ~config () in
  Util.check_vec3 "before move" t.Trace.steps.(0).Trace.true_object_locs.(4)
    t.Trace.steps.(29).Trace.true_object_locs.(4);
  Util.check_vec3 "after move" target t.Trace.steps.(30).Trace.true_object_locs.(4);
  Util.check_vec3 "stays" target t.Trace.steps.(60).Trace.true_object_locs.(4);
  Util.check_raises_invalid "unknown object" (fun () ->
      let bad =
        {
          (Trace_gen.default_config ()) with
          Trace_gen.movements =
            [ { Trace_gen.move_epoch = 1; move_obj = 99; move_to = target } ];
        }
      in
      ignore (gen_trace ~config:bad ()))

let test_gaussian_report_noise () =
  let sensing =
    Location_sensing.create ~bias:(Util.vec3 0. 0.5 0.) ~sigma:(Util.vec3 0.01 0.01 0.) ()
  in
  let config =
    { (Trace_gen.default_config ()) with Trace_gen.location_noise = Trace_gen.Gaussian_report sensing }
  in
  let _, t = gen_trace ~config () in
  (* Reported y should be about 0.5 above true y on average. *)
  let diffs =
    Array.map
      (fun s ->
        s.Trace.observation.Types.o_reported_loc.Vec3.y
        -. s.Trace.true_reader.Reader_state.loc.Vec3.y)
      t.Trace.steps
  in
  Util.check_close ~eps:0.02 "systematic y offset" 0.5 (Rfid_prob.Stats.mean diffs)

let test_dead_reckoning_drift () =
  let config =
    {
      (Trace_gen.default_config ()) with
      Trace_gen.location_noise = Trace_gen.Dead_reckoning;
      velocity_bias = Util.vec3 0. 0.005 0.;
      drift_cap = Some 1.0;
    }
  in
  let _, t = gen_trace ~config () in
  let last = t.Trace.steps.(Trace.epochs t - 1) in
  let dev =
    Vec3.dist_xy last.Trace.true_reader.Reader_state.loc
      last.Trace.observation.Types.o_reported_loc
  in
  Alcotest.(check bool) "drift accumulated" true (dev > 0.2);
  Alcotest.(check bool) "drift capped" true (dev <= 1.0 +. 1e-9)

let test_validation () =
  Util.check_raises_invalid "bad read_every" (fun () ->
      let bad = { (Trace_gen.default_config ()) with Trace_gen.read_every = 0 } in
      ignore (gen_trace ~config:bad ()));
  Util.check_raises_invalid "bad rounds" (fun () ->
      let wh = Warehouse.layout ~num_objects:4 () in
      ignore (Trace_gen.straight_pass wh ~rounds:0))

(* Lab *)

let test_lab_geometry () =
  let lab = Lab.deployment () in
  Alcotest.(check int) "70 object tags" Lab.num_objects
    (Array.length lab.Lab.object_locs);
  Alcotest.(check int) "10 reference tags" 10
    (List.length (World.shelf_tags lab.Lab.world));
  (* Object tags sit on the front edge of the imagined shelves. *)
  Array.iter
    (fun (loc : Vec3.t) ->
      Util.check_close "row x" 1.5 (Float.abs loc.Vec3.x))
    lab.Lab.object_locs

let test_lab_shelf_sizes () =
  let small = Lab.deployment ~shelf_size:Lab.Small () in
  let large = Lab.deployment ~shelf_size:Lab.Large () in
  let width w =
    let s = (World.shelves w).(0).World.surface in
    s.Box2.max_x -. s.Box2.min_x
  in
  Util.check_close "small width" 0.66 (width small.Lab.world);
  Util.check_close "large width" 2.6 (width large.Lab.world)

let test_lab_timeouts () =
  List.iter
    (fun ms -> ignore (Lab.deployment ~timeout_ms:ms ()))
    [ 250; 500; 750 ];
  Util.check_raises_invalid "bad timeout" (fun () ->
      ignore (Lab.deployment ~timeout_ms:100 ()));
  (* Longer timeout widens the sensing region. *)
  let r ms = (Lab.deployment ~timeout_ms:ms ()).Lab.sensor.Truth_sensor.range in
  Alcotest.(check bool) "range grows" true (r 250 < r 500 && r 500 < r 750)

let test_lab_scan () =
  let lab = Lab.deployment () in
  let t = Lab.scan lab ~seed:3 in
  Alcotest.(check int) "object universe" Lab.num_objects t.Trace.num_objects;
  Alcotest.(check bool) "two passes" true (Trace.epochs t > 250);
  (* Reference tags appear in the readings. *)
  let shelf_reads =
    Array.fold_left
      (fun acc s ->
        acc
        + List.length
            (List.filter
               (fun tag -> match tag with Types.Shelf_tag _ -> true | _ -> false)
               s.Trace.observation.Types.o_read_tags))
      0 t.Trace.steps
  in
  Alcotest.(check bool) "reference tags read" true (shelf_reads > 50);
  (* Determinism. *)
  let t2 = Lab.scan lab ~seed:3 in
  Alcotest.(check bool) "deterministic" true (t.Trace.steps = t2.Trace.steps)

let suite =
  ( "sim",
    [
      Alcotest.test_case "cone sensor shape" `Quick test_cone_sensor_shape;
      Alcotest.test_case "spherical sensor shape" `Quick test_spherical_sensor_shape;
      Alcotest.test_case "sensor probabilities valid" `Quick
        test_sensor_probabilities_valid;
      Alcotest.test_case "warehouse layout" `Quick test_warehouse_layout;
      Alcotest.test_case "warehouse shelf tags" `Quick test_warehouse_shelf_tags_known;
      Alcotest.test_case "trace structure" `Quick test_trace_structure;
      Alcotest.test_case "all objects read" `Quick test_trace_objects_get_read;
      Alcotest.test_case "rounds double epochs" `Quick test_trace_rounds_double_epochs;
      Alcotest.test_case "read_every throttling" `Quick test_read_every;
      Alcotest.test_case "movement injection" `Quick test_movement_injection;
      Alcotest.test_case "gaussian report noise" `Quick test_gaussian_report_noise;
      Alcotest.test_case "dead reckoning drift" `Quick test_dead_reckoning_drift;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "lab geometry" `Quick test_lab_geometry;
      Alcotest.test_case "lab shelf sizes" `Quick test_lab_shelf_sizes;
      Alcotest.test_case "lab timeouts" `Quick test_lab_timeouts;
      Alcotest.test_case "lab scan" `Quick test_lab_scan;
    ] )
