(* The §V-C lab deployment, end to end: a dead-reckoning robot scans two
   rows of 80 tags with a spherical-read-region antenna; we calibrate
   the sensor model from the reference tags, then clean the scan with
   our engine and with the SMURF and uniform baselines.

   Run with:  dune exec examples/lab_deployment.exe *)

open Rfid_model

let () =
  let timeout_ms = 500 in
  let lab = Rfid_sim.Lab.deployment ~timeout_ms ~shelf_size:Rfid_sim.Lab.Small () in
  Printf.printf
    "lab rig: %d object tags, %d reference tags, reader timeout %d ms\n\n"
    Rfid_sim.Lab.num_objects
    (List.length (World.shelf_tags lab.Rfid_sim.Lab.world))
    timeout_ms;

  (* Training scan -> EM calibration (the robot's commanded headings are
     known: 0 on the way out, pi on the way back). *)
  let heading_model = Rfid_core.Config.Known_heading Rfid_sim.Lab.heading in
  let train = Rfid_sim.Lab.scan lab ~seed:8 in
  let learned =
    Rfid_learn.Calibration.calibrate ~heading_model ~world:lab.Rfid_sim.Lab.world
      ~init:Params.default ~em_iters:3
      ~init_reader:train.Trace.steps.(0).Trace.true_reader (Trace.observations train)
  in
  Format.printf "calibrated from the training scan:@.  %a@.@." Params.pp learned;

  (* Evaluation scan. *)
  let trace = Rfid_sim.Lab.scan lab ~seed:7 in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
      ~num_reader_particles:150 ~num_object_particles:300 ~heading_model ()
  in
  let ours = Rfid_eval.Runner.run_engine ~params:learned ~config ~seed:4 trace in

  (* Baselines get the read range from our learned model, as in the
     paper ("SMURF cannot learn the sensor model from data"). *)
  let range = Float.min 8. (Sensor_model.detection_range learned.Params.sensor) in
  let obs = Trace.observations trace in
  let smurf =
    Rfid_baselines.Smurf.run ~world:lab.Rfid_sim.Lab.world ~read_range:range
      ~heading_of:Rfid_sim.Lab.heading ~seed:5 obs
  in
  let uniform =
    Rfid_baselines.Uniform.run ~world:lab.Rfid_sim.Lab.world ~read_range:range
      ~heading_of:Rfid_sim.Lab.heading ~seed:5 obs
  in
  let report label events =
    let e = Rfid_eval.Metrics.inference_error events trace in
    Printf.printf "  %-18s X=%.2f  Y=%.2f  XY=%.2f ft  (%d events)\n" label
      e.Rfid_eval.Metrics.mean_x e.Rfid_eval.Metrics.mean_y e.Rfid_eval.Metrics.mean_xy
      e.Rfid_eval.Metrics.count
  in
  Printf.printf "inference error on the evaluation scan:\n";
  report "our system" ours.Rfid_eval.Runner.events;
  report "SMURF (improved)" smurf;
  report "uniform sampling" uniform
