open Rfid_model
open Rfid_core

(* A hand-built trace with known truth for metric checks. *)
let tiny_trace () =
  let world = Util.two_shelf_world () in
  let steps =
    Array.init 5 (fun e ->
        {
          Trace.epoch = e;
          true_reader =
            Reader_state.make ~loc:(Util.vec3 0. (float_of_int e) 0.) ~heading:0.;
          true_object_locs = [| Util.vec3 3. 1. 0.; Util.vec3 3. 2. 0. |];
          observation =
            {
              Types.o_epoch = e;
              o_reported_loc = Util.vec3 0. (float_of_int e) 0.;
              o_read_tags = [];
            };
        })
  in
  { Trace.world; num_objects = 2; steps }

let test_inference_error () =
  let trace = tiny_trace () in
  let events =
    [
      Event.make ~epoch:0 ~obj:0 ~loc:(Util.vec3 3. 1. 0.) ();
      (* exact *)
      Event.make ~epoch:1 ~obj:1 ~loc:(Util.vec3 4. 2. 0.) ();
      (* off by 1 in x *)
    ]
  in
  let err = Rfid_eval.Metrics.inference_error events trace in
  Alcotest.(check int) "count" 2 err.Rfid_eval.Metrics.count;
  Util.check_close "mean x" 0.5 err.Rfid_eval.Metrics.mean_x;
  Util.check_close "mean y" 0. err.Rfid_eval.Metrics.mean_y;
  Util.check_close "mean xy" 0.5 err.Rfid_eval.Metrics.mean_xy

let test_error_epoch_clamping_and_unknowns () =
  let trace = tiny_trace () in
  let events =
    [
      (* Flush event after the trace end: clamps to last epoch. *)
      Event.make ~epoch:99 ~obj:0 ~loc:(Util.vec3 3. 1. 0.) ();
      (* Unknown object id: ignored. *)
      Event.make ~epoch:0 ~obj:42 ~loc:(Util.vec3 0. 0. 0.) ();
    ]
  in
  let err = Rfid_eval.Metrics.inference_error events trace in
  Alcotest.(check int) "only known object scored" 1 err.Rfid_eval.Metrics.count;
  Util.check_close "clamped epoch exact" 0. err.Rfid_eval.Metrics.mean_xy

let test_per_object_takes_last () =
  let trace = tiny_trace () in
  let events =
    [
      Event.make ~epoch:0 ~obj:0 ~loc:(Util.vec3 9. 9. 0.) ();
      Event.make ~epoch:1 ~obj:0 ~loc:(Util.vec3 3. 1. 0.) ();
    ]
  in
  match Rfid_eval.Metrics.per_object_error events trace with
  | [ (0, e) ] -> Util.check_close "last event wins" 0. e
  | l -> Alcotest.failf "unexpected per-object list of %d" (List.length l)

let test_runner_counts_readings () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:5 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:8)
  in
  let expected_readings =
    List.fold_left
      (fun acc (o : Types.observation) -> acc + List.length o.Types.o_read_tags)
      0 (Trace.observations trace)
  in
  let config =
    Config.create ~variant:Config.Factorized ~num_reader_particles:40
      ~num_object_particles:60 ()
  in
  let r = Rfid_eval.Runner.run_engine ~config ~seed:1 trace in
  Alcotest.(check int) "reading count" expected_readings
    r.Rfid_eval.Runner.total_readings;
  Alcotest.(check bool) "timing positive" true (r.Rfid_eval.Runner.elapsed_s >= 0.)

let suite =
  ( "eval",
    [
      Alcotest.test_case "inference error" `Quick test_inference_error;
      Alcotest.test_case "epoch clamping and unknown ids" `Quick
        test_error_epoch_clamping_and_unknowns;
      Alcotest.test_case "per-object last event" `Quick test_per_object_takes_last;
      Alcotest.test_case "runner counts readings" `Quick test_runner_counts_readings;
    ] )
