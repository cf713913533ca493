(* One experiment per table/figure of the paper's evaluation (§V), plus
   ablations. Every experiment prints the series/rows the paper reports;
   EXPERIMENTS.md records paper-vs-measured. All runs are seeded. *)

open Rfid_model
open Rfid_geom

let section title = Printf.printf "\n######## %s ########\n%!" title

(* ------------------------------------------------------------------ *)
(* Fig. 5(a)-(d): true and learned sensor models as read-rate fields.  *)

let calibrate_on_training ?sensing ~shelf_tags_kept ~em_iters ~seed () =
  (* Training rig per §V-B: a 20-tag trace; [shelf_tags_kept] of the
     tags have known locations. One tag per shelf so the number of
     known-location tags is exactly the number of kept shelf tags. *)
  let keep =
    if shelf_tags_kept = 0 then []
    else List.init shelf_tags_kept (fun i -> i * 20 / shelf_tags_kept)
  in
  let built =
    Scenarios.warehouse_trace ~num_objects:20 ~objects_per_shelf:1
      ~shelf_tags_kept:keep ?sensing ~seed ()
  in
  Rfid_learn.Calibration.calibrate ~world:built.Scenarios.world ~init:Params.default
    ~em_iters ~init_reader:built.Scenarios.trace.Trace.steps.(0).Trace.true_reader
    (Trace.observations built.Scenarios.trace)

let sensor_models () =
  section "fig5a-d: sensor models (true vs learned)";
  let cone = Rfid_sim.Truth_sensor.cone () in
  Tables.heatmap ~title:"(a) true simulator sensor model (cone)"
    ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob ~max_x:4. ~max_y:2. ~cols:56
    ~rows:17;
  let show title sensor =
    Tables.heatmap ~title
      ~read_prob:(fun ~d ~theta -> Sensor_model.read_prob_at sensor ~d ~theta)
      ~max_x:4. ~max_y:2. ~cols:56 ~rows:17;
    Printf.printf "  model: %s   MAE vs true: %.4f\n"
      (Format.asprintf "%a" Sensor_model.pp sensor)
      (Rfid_learn.Supervised.mean_abs_error sensor
         ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob)
  in
  let learned20 = calibrate_on_training ~shelf_tags_kept:20 ~em_iters:4 ~seed:61 () in
  show "(b) learned sensor model, 20 shelf tags" learned20.Params.sensor;
  let learned4 = calibrate_on_training ~shelf_tags_kept:4 ~em_iters:4 ~seed:61 () in
  show "(c) learned sensor model, 4 shelf tags" learned4.Params.sensor;
  (* (d): the lab antenna is spherical with a wide minor range; we show
     the supervised fit of the lab truth region (our stand-in for the
     ThingMagic reader's learned model). *)
  let lab = Rfid_sim.Lab.deployment () in
  Tables.heatmap ~title:"(d) lab reader: true spherical region"
    ~read_prob:lab.Rfid_sim.Lab.sensor.Rfid_sim.Truth_sensor.read_prob ~max_x:4.
    ~max_y:2. ~cols:56 ~rows:17;
  let lab_fit =
    Scenarios.fitted_sensor ~key:"lab-500" lab.Rfid_sim.Lab.sensor
  in
  Tables.heatmap ~title:"(d') lab reader: fitted logistic model"
    ~read_prob:(fun ~d ~theta -> Sensor_model.read_prob_at lab_fit ~d ~theta)
    ~max_x:4. ~max_y:2. ~cols:56 ~rows:17

(* ------------------------------------------------------------------ *)
(* Fig. 5(e): inference error vs number of shelf tags used in learning *)

let learning_shelf_tags () =
  section "fig5e: error vs number of shelf tags used in learning";
  (* Reader location reports carry a systematic offset plus noise; the
     known-location tags are what lets calibration discover it. With no
     anchors EM cannot separate reader error from sensor shape — the
     paper's "stuck in local maxima" regime. *)
  let sensing =
    Location_sensing.create ~bias:(Vec3.make 0. 0.35 0.)
      ~sigma:(Vec3.make 0.15 0.15 0.) ()
  in
  (* Test rig per §V-B: 10 object tags + 4 shelf tags, same noise;
     errors averaged over several test traces to tame single-run
     Monte-Carlo noise. *)
  let test_seeds = [ 71; 72; 73 ] in
  let builds =
    List.map
      (fun seed ->
        Scenarios.warehouse_trace ~num_objects:10 ~objects_per_shelf:3 ~sensing ~seed ())
      test_seeds
  in
  let config = Scenarios.engine_config () in
  let avg f = List.fold_left (fun a b -> a +. f b) 0. builds /. float_of_int (List.length builds) in
  let uniform_err =
    avg (fun b ->
        Scenarios.xy_error
          (Scenarios.uniform_events ~world:b.Scenarios.world ~range:3. ~seed:5
             b.Scenarios.trace)
          b.Scenarios.trace)
  in
  let engine_err params =
    avg (fun b ->
        Scenarios.xy_error
          (Scenarios.run ~params ~config b.Scenarios.trace).Rfid_eval.Runner.events
          b.Scenarios.trace)
  in
  let true_err = engine_err { (Scenarios.cone_params ()) with Params.sensing } in
  let cone = Rfid_sim.Truth_sensor.cone () in
  let rows =
    List.map
      (fun k ->
        let learned =
          calibrate_on_training ~sensing ~shelf_tags_kept:k ~em_iters:3 ~seed:61 ()
        in
        let mae =
          Rfid_learn.Supervised.mean_abs_error learned.Params.sensor
            ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
        in
        [
          string_of_int k;
          Tables.f3 (engine_err learned);
          Printf.sprintf "%.3f" mae;
          Tables.f3 true_err;
          Tables.f3 uniform_err;
        ])
      [ 0; 1; 2; 4; 8; 12; 20 ]
  in
  Tables.print
    ~title:
      "XY inference error (ft), mean of 3 test traces (10 objects + 4 shelf tags each)"
    ~header:[ "shelf tags"; "learned model"; "sensor MAE"; "true model"; "uniform" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 5(f): error vs major-detection-range read rate                 *)

let read_rate () =
  section "fig5f: error vs read rate in the major detection range";
  let seeds = [ 81; 82; 83 ] in
  let rows =
    List.map
      (fun rr ->
        let builds =
          List.map
            (fun seed ->
              Scenarios.warehouse_trace ~num_objects:16 ~objects_per_shelf:4 ~rr ~seed ())
            seeds
        in
        let avg f =
          List.fold_left (fun a b -> a +. f b) 0. builds /. float_of_int (List.length builds)
        in
        let params = Scenarios.cone_params ~rr () in
        let inference =
          avg (fun b ->
              Scenarios.xy_error
                (Scenarios.run ~params ~config:(Scenarios.engine_config ()) b.Scenarios.trace)
                  .Rfid_eval.Runner.events
                b.Scenarios.trace)
        in
        let uniform =
          avg (fun b ->
              Scenarios.xy_error
                (Scenarios.uniform_events ~world:b.Scenarios.world ~range:3. ~seed:5
                   b.Scenarios.trace)
                b.Scenarios.trace)
        in
        [ Printf.sprintf "%.0f%%" (rr *. 100.); Tables.f3 inference; Tables.f3 uniform ])
      [ 1.0; 0.9; 0.8; 0.7; 0.6; 0.5 ]
  in
  Tables.print
    ~title:"XY inference error (ft), 16 object + 4 shelf tags, mean of 3 traces"
    ~header:[ "read rate"; "inference"; "uniform" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 5(g): error vs systematic reader-location error along y        *)

let location_noise () =
  section "fig5g: error vs systematic reader-location error (sigma_y = 0.2)";
  let k = 300 in
  let rows =
    List.map
      (fun mu_y ->
        let sensing =
          Location_sensing.create ~bias:(Vec3.make 0. mu_y 0.)
            ~sigma:(Vec3.make 0.2 0.2 0.) ()
        in
        let built =
          Scenarios.warehouse_trace ~num_objects:16 ~objects_per_shelf:4 ~sensing
            ~seed:91 ()
        in
        let trace = built.Scenarios.trace in
        let base = Scenarios.cone_params () in
        (* On-true: the filter knows the actual bias and noise. *)
        let on_true = { base with Params.sensing } in
        let r_true =
          Scenarios.run ~params:on_true ~config:(Scenarios.engine_config ~k ()) trace
        in
        (* On-learned: calibrate on a training trace with the same noise. *)
        let train =
          Scenarios.warehouse_trace ~num_objects:20 ~objects_per_shelf:5 ~sensing
            ~seed:92 ()
        in
        let learned =
          Rfid_learn.Calibration.calibrate ~world:train.Scenarios.world
            ~init:Params.default ~em_iters:4
            ~init_reader:train.Scenarios.trace.Trace.steps.(0).Trace.true_reader
            (Trace.observations train.Scenarios.trace)
        in
        let r_learned =
          Scenarios.run ~params:learned ~config:(Scenarios.engine_config ~k ()) trace
        in
        (* Off: reported location taken as the truth. *)
        let r_off =
          Scenarios.run
            ~params:(Scenarios.motion_off_params base)
            ~config:(Scenarios.motion_off_config ~k ())
            trace
        in
        let uniform =
          Scenarios.xy_error
            (Scenarios.uniform_events ~world:built.Scenarios.world ~range:3. ~seed:5
               trace)
            trace
        in
        [
          Tables.f2 mu_y;
          Tables.f3 uniform;
          Tables.f3 (Scenarios.xy_error r_off.Rfid_eval.Runner.events trace);
          Tables.f3 (Scenarios.xy_error r_learned.Rfid_eval.Runner.events trace);
          Tables.f3 (Scenarios.xy_error r_true.Rfid_eval.Runner.events trace);
        ])
      [ 0.1; 0.25; 0.4; 0.55; 0.7; 0.85; 1.0 ]
  in
  Tables.print ~title:"XY inference error (ft) vs systematic error along Y"
    ~header:[ "mu_y"; "uniform"; "motion off"; "on-learned"; "on-true" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 5(h): error vs distance of object movement                     *)

let moving_objects () =
  section "fig5h: error vs distance of object movement";
  let num_objects = 48 in
  let moved = 10 in
  let seeds = [ 101; 102; 103 ] in
  let rows =
    List.map
      (fun dist ->
        (* Build the 2-round trace; move [moved] by [dist] along the
           shelf run between the rounds. *)
        let wh = Rfid_sim.Warehouse.layout ~num_objects () in
        let orig = wh.Rfid_sim.Warehouse.object_locs.(moved) in
        let target =
          World.clamp_to_shelves wh.Rfid_sim.Warehouse.world
            (Vec3.make orig.Vec3.x (orig.Vec3.y +. dist) orig.Vec3.z)
        in
        let path = Rfid_sim.Trace_gen.straight_pass wh ~rounds:2 in
        let half =
          List.fold_left (fun a s -> a + s.Rfid_sim.Trace_gen.seg_epochs) 0 path / 2
        in
        let config = Rfid_sim.Trace_gen.default_config () in
        let config =
          {
            config with
            Rfid_sim.Trace_gen.movements =
              [ { Rfid_sim.Trace_gen.move_epoch = half; move_obj = moved; move_to = target } ];
          }
        in
        let traces =
          List.map
            (fun seed ->
              Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
                ~object_locs:wh.Rfid_sim.Warehouse.object_locs
                ~start:(Rfid_sim.Warehouse.reader_start wh)
                ~path ~config (Rfid_prob.Rng.create ~seed))
            seeds
        in
        let results =
          List.map
            (fun trace ->
              let r =
                Scenarios.run ~params:(Scenarios.cone_params ())
                  ~config:(Scenarios.engine_config ()) trace
              in
              let per_object =
                Rfid_eval.Metrics.per_object_error r.Rfid_eval.Runner.events trace
              in
              let moved_err =
                match List.assoc_opt moved per_object with
                | Some e -> e
                | None -> Float.nan
              in
              let uniform =
                Scenarios.xy_error
                  (Scenarios.uniform_events ~world:wh.Rfid_sim.Warehouse.world ~range:3.
                     ~seed:5 trace)
                  trace
              in
              (moved_err, Scenarios.xy_error r.Rfid_eval.Runner.events trace, uniform))
            traces
        in
        let avg f =
          List.fold_left (fun a x -> a +. f x) 0. results
          /. float_of_int (List.length results)
        in
        [
          Tables.f2 dist;
          Tables.f3 (avg (fun (m, _, _) -> m));
          Tables.f3 (avg (fun (_, o, _) -> o));
          Tables.f3 (avg (fun (_, _, u) -> u));
        ])
      [ 0.5; 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 20. ]
  in
  Tables.print
    ~title:"error (ft) when one object moves between scan rounds"
    ~header:[ "move dist"; "moved-object err"; "overall err"; "uniform" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 5(i)/(j): scalability in the number of objects                 *)

type scal_row = {
  sc_n : int;
  sc_variant : string;
  sc_err : float;
  sc_ms : float;
  sc_scope : int;
  sc_mb : float;
}

let scalability ?(large = false) () =
  section "fig5i/j: scalability (error and time per reading vs #objects)";
  let sizes = if large then [ 10; 20; 100; 500; 1000; 5000; 10000 ] else [ 10; 20; 100; 500; 1000; 2000 ] in
  let speed = 0.2 in
  let rows = ref [] in
  let record n label (r : Rfid_eval.Runner.result) =
    rows :=
      {
        sc_n = n;
        sc_variant = label;
        sc_err = r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy;
        sc_ms = r.Rfid_eval.Runner.ms_per_reading;
        sc_scope = r.Rfid_eval.Runner.max_objects_processed;
        sc_mb = r.Rfid_eval.Runner.live_heap_mb;
      }
      :: !rows
  in
  List.iter
    (fun n ->
      Printf.printf "  ... %d objects\n%!" n;
      let built = Scenarios.warehouse_trace ~num_objects:n ~rounds:2 ~speed ~seed:111 () in
      let trace = built.Scenarios.trace in
      let params = Scenarios.cone_params () in
      if n <= 20 then begin
        let config = Rfid_core.Config.create ~num_reader_particles:10000 () in
        record n "unfactorized"
          (Rfid_eval.Runner.run_joint ~params ~config ~seed:7 trace)
      end;
      if n <= 500 then
        record n "factorized"
          (Scenarios.run ~params
             ~config:(Scenarios.engine_config ~variant:Rfid_core.Config.Factorized ())
             trace);
      record n "factorized+index"
        (Scenarios.run ~params
           ~config:(Scenarios.engine_config ~variant:Rfid_core.Config.Factorized_indexed ())
           trace);
      record n "f+index+compress"
        (Scenarios.run ~params
           ~config:
             (Scenarios.engine_config ~variant:Rfid_core.Config.Factorized_compressed ())
           trace))
    sizes;
  let rows = List.rev !rows in
  Tables.print ~title:"fig5i: inference error (ft)"
    ~header:[ "#objects"; "variant"; "XY error"; "max scope"; "live MB" ]
    (List.map
       (fun r ->
         [
           string_of_int r.sc_n; r.sc_variant; Tables.f3 r.sc_err;
           string_of_int r.sc_scope; Tables.f2 r.sc_mb;
         ])
       rows);
  Tables.print ~title:"fig5j: CPU time per reading (ms)"
    ~header:[ "#objects"; "variant"; "ms/reading" ]
    (List.map
       (fun r -> [ string_of_int r.sc_n; r.sc_variant; Tables.f3 r.sc_ms ])
       rows)

(* ------------------------------------------------------------------ *)
(* Fig. 6(b): lab deployment — ours vs SMURF (improved) vs uniform     *)

let lab_errors events trace =
  let e = Rfid_eval.Metrics.inference_error events trace in
  (e.Rfid_eval.Metrics.mean_x, e.Rfid_eval.Metrics.mean_y, e.Rfid_eval.Metrics.mean_xy)

let lab_table () =
  section "fig6b: lab deployment (dead-reckoning robot, spherical reader)";
  let heading_model = Rfid_core.Config.Known_heading Rfid_sim.Lab.heading in
  let rows = ref [] in
  List.iter
    (fun shelf_size ->
      List.iter
        (fun timeout_ms ->
          let lab = Rfid_sim.Lab.deployment ~timeout_ms ~shelf_size () in
          let trace = Rfid_sim.Lab.scan lab ~seed:7 in
          (* Calibrate the sensor model from a separate training scan of
             the same rig (§V-C uses the shelf tags this way). *)
          let train = Rfid_sim.Lab.scan lab ~seed:8 in
          let learned =
            Rfid_learn.Calibration.calibrate ~heading_model ~world:lab.Rfid_sim.Lab.world
              ~init:Params.default ~em_iters:3
              ~init_reader:train.Trace.steps.(0).Trace.true_reader (Trace.observations train)
          in
          let config =
            Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
              ~num_reader_particles:150 ~num_object_particles:300 ~heading_model ()
          in
          let ours = Scenarios.run ~params:learned ~config trace in
          (* SMURF is offered the read range from our learned model. *)
          let range =
            Float.min 8. (Sensor_model.detection_range learned.Params.sensor)
          in
          let smurf =
            Scenarios.smurf_events ~heading_of:Rfid_sim.Lab.heading
              ~world:lab.Rfid_sim.Lab.world ~range ~seed:5 trace
          in
          let uniform =
            Scenarios.uniform_events ~heading_of:Rfid_sim.Lab.heading
              ~world:lab.Rfid_sim.Lab.world ~range ~seed:5 trace
          in
          let ox, oy, oxy = lab_errors ours.Rfid_eval.Runner.events trace in
          let sx, sy, sxy = lab_errors smurf trace in
          let ux, uy, uxy = lab_errors uniform trace in
          rows :=
            [
              Printf.sprintf "%d (%s)" timeout_ms
                (match shelf_size with Rfid_sim.Lab.Small -> "SS" | Rfid_sim.Lab.Large -> "LS");
              Tables.f2 ox; Tables.f2 oy; Tables.f2 oxy;
              Tables.f2 sx; Tables.f2 sy; Tables.f2 sxy;
              Tables.f2 ux; Tables.f2 uy; Tables.f2 uxy;
            ]
            :: !rows)
        [ 250; 500; 750 ])
    [ Rfid_sim.Lab.Small; Rfid_sim.Lab.Large ];
  Tables.print
    ~title:
      "inference error (ft); SS = small imagined shelf (0.66 ft deep), LS = large (2.6 ft)"
    ~header:
      [
        "timeout"; "ours X"; "ours Y"; "ours XY"; "smurf X"; "smurf Y"; "smurf XY";
        "unif X"; "unif Y"; "unif XY";
      ]
    (List.rev !rows);
  (* Headline number: average error reduction of ours vs SMURF. *)
  let reductions =
    List.filter_map
      (fun row ->
        match row with
        | _ :: _ :: _ :: oxy :: _ :: _ :: sxy :: _ ->
            let o = float_of_string oxy and s = float_of_string sxy in
            if s > 0. then Some (1. -. (o /. s)) else None
        | _ -> None)
      !rows
  in
  let avg =
    List.fold_left ( +. ) 0. reductions /. float_of_int (List.length reductions)
  in
  Printf.printf "\n  average error reduction vs SMURF: %.0f%% (paper: 49%%)\n" (100. *. avg)

(* ------------------------------------------------------------------ *)
(* Throughput summary (§V-D text claims)                               *)

let throughput () =
  section "tput: sustained readings/second per engine variant";
  let built = Scenarios.warehouse_trace ~num_objects:500 ~rounds:2 ~speed:0.2 ~seed:121 () in
  let trace = built.Scenarios.trace in
  let params = Scenarios.cone_params () in
  let rows =
    List.map
      (fun (label, config) ->
        let r = Scenarios.run ~params ~config trace in
        let per_s =
          if r.Rfid_eval.Runner.elapsed_s > 0. then
            float_of_int r.Rfid_eval.Runner.total_readings /. r.Rfid_eval.Runner.elapsed_s
          else 0.
        in
        [
          label;
          Printf.sprintf "%.0f" per_s;
          Tables.f3 r.Rfid_eval.Runner.ms_per_reading;
          Tables.f3 r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy;
        ])
      [
        ( "factorized",
          Scenarios.engine_config ~variant:Rfid_core.Config.Factorized () );
        ( "factorized+index",
          Scenarios.engine_config ~variant:Rfid_core.Config.Factorized_indexed () );
        ( "f+index+compress",
          Scenarios.engine_config ~variant:Rfid_core.Config.Factorized_compressed () );
      ]
  in
  Tables.print ~title:"500 objects, two scan rounds"
    ~header:[ "variant"; "readings/s"; "ms/reading"; "XY error (ft)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablate_resample () =
  section "ablate-resample: resampling scheme and trigger";
  let built = Scenarios.warehouse_trace ~num_objects:16 ~objects_per_shelf:4 ~seed:131 () in
  let trace = built.Scenarios.trace in
  let params = Scenarios.cone_params () in
  let rows =
    List.map
      (fun (label, scheme, ratio) ->
        let config =
          Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
            ~num_reader_particles:100 ~num_object_particles:200
            ~resample_scheme:scheme ~resample_ratio:ratio ()
        in
        let r = Scenarios.run ~params ~config trace in
        [
          label;
          Tables.f3 r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy;
          Tables.f3 r.Rfid_eval.Runner.ms_per_reading;
        ])
      [
        ("systematic, ESS 0.5 (ours)", Rfid_core.Config.Systematic, 0.5);
        ("multinomial, ESS 0.5", Rfid_core.Config.Multinomial, 0.5);
        ("residual, ESS 0.5", Rfid_core.Config.Residual, 0.5);
        ("systematic, every step", Rfid_core.Config.Systematic, 1.0);
        ("systematic, ESS 0.2", Rfid_core.Config.Systematic, 0.2);
      ]
  in
  Tables.print ~title:"16 objects, one scan round"
    ~header:[ "policy"; "XY error (ft)"; "ms/reading" ]
    rows

let ablate_index () =
  section "ablate-index: spatial index vs brute-force Case-2 scan";
  let params = Scenarios.cone_params () in
  let rows =
    List.concat_map
      (fun n ->
        let built = Scenarios.warehouse_trace ~num_objects:n ~speed:0.2 ~seed:141 () in
        let trace = built.Scenarios.trace in
        List.map
          (fun (label, variant) ->
            let r =
              Scenarios.run ~params ~config:(Scenarios.engine_config ~variant ()) trace
            in
            [
              string_of_int n;
              label;
              Tables.f3 r.Rfid_eval.Runner.ms_per_reading;
              string_of_int r.Rfid_eval.Runner.max_objects_processed;
            ])
          [
            ("brute force", Rfid_core.Config.Factorized);
            ("spatial index", Rfid_core.Config.Factorized_indexed);
          ])
      [ 25; 100; 400 ]
  in
  Tables.print ~title:"cost of the Case-2 candidate computation"
    ~header:[ "#objects"; "method"; "ms/reading"; "max scope" ]
    rows

let ablate_compress () =
  section "ablate-compress: belief-compression particle budget";
  let built = Scenarios.warehouse_trace ~num_objects:100 ~rounds:2 ~speed:0.2 ~seed:151 () in
  let trace = built.Scenarios.trace in
  let params = Scenarios.cone_params () in
  let rows =
    List.map
      (fun dp ->
        let config =
          Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_compressed
            ~num_reader_particles:100 ~num_object_particles:200
            ~decompress_particles:dp ()
        in
        let r = Scenarios.run ~params ~config trace in
        [
          string_of_int dp;
          Tables.f3 r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy;
          Tables.f3 r.Rfid_eval.Runner.ms_per_reading;
        ])
      [ 5; 10; 25; 50; 100 ]
  in
  Tables.print ~title:"100 objects, two scan rounds (second round runs on decompressed beliefs)"
    ~header:[ "decompress particles"; "XY error (ft)"; "ms/reading" ]
    rows

(* ------------------------------------------------------------------ *)

let all : (string * string * (unit -> unit)) list =
  [
    ("sensor-models", "Fig 5(a)-(d): true vs learned sensor models", sensor_models);
    ("learning-shelf-tags", "Fig 5(e): error vs #shelf tags in learning", learning_shelf_tags);
    ("read-rate", "Fig 5(f): error vs major-range read rate", read_rate);
    ("location-noise", "Fig 5(g): error vs systematic location error", location_noise);
    ("moving-objects", "Fig 5(h): error vs movement distance", moving_objects);
    ("scalability", "Fig 5(i)/(j): error and time vs #objects", fun () -> scalability ());
    ("lab-table", "Fig 6(b): lab deployment, ours vs SMURF vs uniform", lab_table);
    ("throughput", "Text of SV-D: readings/second", throughput);
    ("ablate-resample", "Ablation: resampling schemes/triggers", ablate_resample);
    ("ablate-index", "Ablation: spatial index vs brute force", ablate_index);
    ("ablate-compress", "Ablation: decompression particle budget", ablate_compress);
  ]
