(* Bechamel micro-benchmarks of the engine's inner loops — one
   [Test.make] per experiment family, so the per-operation costs behind
   each table are measurable in isolation. (The accuracy tables
   themselves are produced by {!Experiments}; Bechamel measures time,
   not error.) *)

open Bechamel
open Toolkit

let sensor_model_test =
  let sensor = Rfid_model.Sensor_model.default in
  let reader_loc = Rfid_geom.Vec3.make 0. 0. 0. in
  let tag_loc = Rfid_geom.Vec3.make 2. 0.5 0. in
  Test.make ~name:"sensor log_prob (fig5e/f inner loop)"
    (Staged.stage (fun () ->
         ignore
           (Rfid_model.Sensor_model.log_prob sensor ~reader_loc ~reader_heading:0.
              ~tag_loc ~read:true)))

let resample_test =
  let rng = Rfid_prob.Rng.create ~seed:1 in
  let w =
    Rfid_prob.Stats.normalize (Array.init 200 (fun i -> 1. +. float_of_int (i mod 7)))
  in
  Test.make ~name:"systematic resample, 200 particles (fig5i inner loop)"
    (Staged.stage (fun () -> ignore (Rfid_prob.Resample.systematic rng w ~n:200)))

let index_test =
  let rng = Rfid_prob.Rng.create ~seed:2 in
  let t = Rfid_geom.Dyn_index.create ~dummy:(-1) () in
  for i = 0 to 999 do
    let x = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:500. in
    let y = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:10. in
    ignore
      (Rfid_geom.Dyn_index.insert t
         (Rfid_geom.Box2.make ~min_x:x ~min_y:y ~max_x:(x +. 8.) ~max_y:(y +. 8.))
         i)
  done;
  let probe = Rfid_geom.Box2.make ~min_x:200. ~min_y:0. ~max_x:210. ~max_y:10. in
  let hits = Rfid_geom.Dyn_index.Hits.create ~dummy:(-1) in
  Test.make ~name:"index probe over 1000 sensing boxes (fig5j inner loop)"
    (Staged.stage (fun () -> Rfid_geom.Dyn_index.query_into t probe hits))

let gaussian_fit_test =
  let rng = Rfid_prob.Rng.create ~seed:3 in
  let pts =
    Array.init 200 (fun _ ->
        [|
          Rfid_prob.Rng.gaussian rng (); Rfid_prob.Rng.gaussian rng ();
          Rfid_prob.Rng.gaussian rng ();
        |])
  in
  Test.make ~name:"belief compression: 200-particle Gaussian fit (fig5i/j)"
    (Staged.stage (fun () -> ignore (Rfid_prob.Gaussian.fit pts)))

let engine_step_test =
  (* Cost of one full engine step on a warm mid-scan state. The engine
     refuses epoch regressions, so the staged closure advances a private
     epoch counter on a pre-warmed engine with recurring observations
     rebuilt per call. *)
  let built = Scenarios.warehouse_trace ~num_objects:100 ~seed:161 () in
  let trace = built.Scenarios.trace in
  let params = Scenarios.cone_params () in
  let engine =
    Rfid_core.Engine.create ~world:built.Scenarios.world ~params
      ~config:(Scenarios.engine_config ())
      ~init_reader:trace.Rfid_model.Trace.steps.(0).Rfid_model.Trace.true_reader
      ~seed:9 ()
  in
  let warm = 60 in
  Array.iteri
    (fun i step ->
      if i < warm then
        ignore (Rfid_core.Engine.step engine step.Rfid_model.Trace.observation))
    trace.Rfid_model.Trace.steps;
  let template = trace.Rfid_model.Trace.steps.(warm).Rfid_model.Trace.observation in
  let next_epoch = ref (Rfid_core.Engine.epoch engine + 1) in
  Test.make ~name:"Engine.step, indexed, 100 objects (tput)"
    (Staged.stage (fun () ->
         let obs = { template with Rfid_model.Types.o_epoch = !next_epoch } in
         incr next_epoch;
         ignore (Rfid_core.Engine.step engine obs)))

let suite () =
  Test.make_grouped ~name:"rfid_streams"
    [ sensor_model_test; resample_test; index_test; gaussian_fit_test; engine_step_test ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.75) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (suite ()) in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  results

let print_results () =
  Printf.printf "\n######## micro: Bechamel component benchmarks ########\n%!";
  let results = benchmark () in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Printf.printf "  %-55s %12.1f ns/run\n" name est
            | Some _ | None -> Printf.printf "  %-55s (no estimate)\n" name)
          tbl)
    results
