(* Self-calibration demo (§III-C): learn the sensor model, reader
   motion and location-sensing parameters from a short training trace
   with a handful of known-location tags, starting from an
   uninformative model. Prints the true and learned read-rate fields.

   Run with:  dune exec examples/calibration.exe *)

open Rfid_model

let heatmap title read_prob =
  Printf.printf "\n%s\n" title;
  let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  for r = 0 to 14 do
    let y = 1.8 -. (float_of_int r /. 14. *. 3.6) in
    print_string "  |";
    for c = 0 to 47 do
      let x = float_of_int c /. 47. *. 4. in
      let d = sqrt ((x *. x) +. (y *. y)) in
      let theta = if x = 0. && y = 0. then 0. else Float.abs (atan2 y x) in
      let p = read_prob ~d ~theta in
      print_char shades.(Int.min 9 (int_of_float (p *. 10.)))
    done;
    print_endline "|"
  done

let () =
  (* The deployment's actual sensing region: a cone the engine has never
     seen. *)
  let truth = Rfid_sim.Truth_sensor.cone ~rr_major:0.95 () in
  heatmap "true sensing region (simulator ground truth):"
    truth.Rfid_sim.Truth_sensor.read_prob;

  (* A training trace: 20 tags on shelves, 4 with known locations. *)
  let wh = Rfid_sim.Warehouse.layout ~objects_per_shelf:5 ~num_objects:20 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ~sensor:truth ())
      (Rfid_prob.Rng.create ~seed:21)
  in

  (* EM from an uninformative start: a sensor that answers 50/50
     everywhere. *)
  let blind = Sensor_model.of_coef [| 0.; 0.; 0.; 0.; 0. |] in
  let t0 = Unix.gettimeofday () in
  let learned =
    Rfid_learn.Calibration.calibrate ~world:wh.Rfid_sim.Warehouse.world
      ~init:(Params.create ~sensor:blind ()) ~em_iters:8
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader (Trace.observations trace)
  in
  Printf.printf "\nEM calibration took %.1f s\n" (Unix.gettimeofday () -. t0);
  Format.printf "learned parameters:@.  %a@." Params.pp learned;

  heatmap "learned sensing region:" (fun ~d ~theta ->
      Sensor_model.read_prob_at learned.Params.sensor ~d ~theta);
  Printf.printf "\nmean |true - learned| read-rate gap: %.4f\n"
    (Rfid_learn.Supervised.mean_abs_error learned.Params.sensor
       ~read_prob:truth.Rfid_sim.Truth_sensor.read_prob)
