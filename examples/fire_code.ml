(* Fire-code monitoring (§II-B of the paper): clean the raw RFID streams
   into location events, then run the CQL-style fire-code violation
   query on top ("display of solid merchandise shall not exceed 200
   pounds per square foot of shelf area").

   The scenario: a clerk wheels four heavy crates onto the same square
   foot of shelf mid-scan. The monitoring pipeline must notice from
   nothing but noisy tag readings.

   Run with:  dune exec examples/fire_code.exe *)

open Rfid_geom

let () =
  let num_objects = 24 in
  let wh = Rfid_sim.Warehouse.layout ~num_objects () in
  (* Crates 4, 9, 14, 19 are relocated into the same square-foot cell
     while the reader is elsewhere (epoch 40). *)
  let hot_cell = Vec3.make 2.3 4.4 0. in
  let movements =
    List.mapi
      (fun i obj ->
        {
          Rfid_sim.Trace_gen.move_epoch = 40;
          move_obj = obj;
          move_to =
            Vec3.make
              (hot_cell.Vec3.x +. (0.15 *. float_of_int i))
              (hot_cell.Vec3.y +. (0.12 *. float_of_int i))
              0.;
        })
      [ 4; 9; 14; 19 ]
  in
  let config =
    { (Rfid_sim.Trace_gen.default_config ()) with Rfid_sim.Trace_gen.movements }
  in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:2)
      ~config (Rfid_prob.Rng.create ~seed:11)
  in

  (* Clean the stream. *)
  let cone = Rfid_sim.Truth_sensor.cone () in
  let sensor =
    Rfid_learn.Supervised.fit_sensor ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
      ~seed:2 ()
  in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:(Rfid_model.Params.create ~sensor ())
      ~config:(Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed ())
      ~init_reader:trace.Rfid_model.Trace.steps.(0).Rfid_model.Trace.true_reader
      ~seed:3 ()
  in
  let events = Rfid_core.Engine.run engine (Rfid_model.Trace.observations trace) in
  Printf.printf "cleaned stream: %d location events\n\n" (List.length events);

  (* The fire-code query. Every crate weighs 60 lbs; the limit is 200 lbs
     per square foot, so 4 crates in one cell violate it. *)
  let fire =
    Rfid_stream.Fire_code.create ~weight_of:(fun _ -> 60.)
  in
  let violations = Rfid_stream.Fire_code.run fire events in
  Printf.printf "fire-code query (> 200 lbs per square foot):\n";
  if violations = [] then print_endline "  no violations detected"
  else
    List.iter
      (fun v -> Format.printf "  VIOLATION %a@." Rfid_stream.Fire_code.pp_violation v)
      violations;

  (* Sanity: where the crates really are. *)
  let truth = Rfid_model.Trace.final_object_locs trace in
  Printf.printf "\nground truth: crates 4/9/14/19 are at cell (%d,%d)\n"
    (int_of_float truth.(4).Vec3.x) (int_of_float truth.(4).Vec3.y)
