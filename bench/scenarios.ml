(* Shared workload builders and engine configurations for the
   experiments. Every experiment is deterministic given its seed. *)

open Rfid_model
open Rfid_geom

let default_speed = 0.1

type built = {
  warehouse : Rfid_sim.Warehouse.t;
  world : World.t;  (* possibly with a reduced shelf-tag set *)
  trace : Trace.t;
}

let warehouse_trace ?(num_objects = 16) ?(objects_per_shelf = 10) ?(rr = 1.0)
    ?(rounds = 1) ?(speed = default_speed) ?shelf_tags_kept ?sensing ?movements
    ?(seed = 42) () =
  let warehouse = Rfid_sim.Warehouse.layout ~objects_per_shelf ~num_objects () in
  let world =
    match shelf_tags_kept with
    | None -> warehouse.Rfid_sim.Warehouse.world
    | Some keep -> World.with_shelf_tags warehouse.Rfid_sim.Warehouse.world ~keep
  in
  let sensor = Rfid_sim.Truth_sensor.cone ~rr_major:rr () in
  let config = Rfid_sim.Trace_gen.default_config ~sensor () in
  let config =
    match sensing with
    | None -> config
    | Some s ->
        { config with Rfid_sim.Trace_gen.location_noise = Rfid_sim.Trace_gen.Gaussian_report s }
  in
  let config =
    match movements with
    | None -> config
    | Some ms -> { config with Rfid_sim.Trace_gen.movements = ms }
  in
  let path = Rfid_sim.Trace_gen.straight_pass ~speed warehouse ~rounds in
  let trace =
    Rfid_sim.Trace_gen.run ~world ~object_locs:warehouse.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start warehouse)
      ~path ~config (Rfid_prob.Rng.create ~seed)
  in
  { warehouse; world; trace }

(* "True model" reference: the best in-family (logistic) approximation
   of a ground-truth sensing region, fitted supervised. Memoized — the
   fit costs a couple hundred milliseconds. *)
let fitted_cache : (string, Sensor_model.t) Hashtbl.t = Hashtbl.create 8

let fitted_sensor ~key (truth : Rfid_sim.Truth_sensor.t) =
  match Hashtbl.find_opt fitted_cache key with
  | Some m -> m
  | None ->
      let m =
        Rfid_learn.Supervised.fit_sensor ~samples:15000
          ~read_prob:truth.Rfid_sim.Truth_sensor.read_prob ~seed:99 ()
      in
      Hashtbl.replace fitted_cache key m;
      m

let cone_params ?(rr = 1.0) () =
  let truth = Rfid_sim.Truth_sensor.cone ~rr_major:rr () in
  let sensor = fitted_sensor ~key:(Printf.sprintf "cone-%.2f" rr) truth in
  Params.create ~sensor ()

let engine_config ?(variant = Rfid_core.Config.Factorized_indexed) ?(j = 100)
    ?(k = 200) ?min_object_particles ?resample_ess_ratio ?heading_model () =
  Rfid_core.Config.create ~variant ~num_reader_particles:j ~num_object_particles:k
    ?min_object_particles ?resample_ess_ratio ?heading_model ()

(* "Motion model Off" (Fig. 5(g)): the reported location is taken as the
   true reader location — one reader particle nailed to the report. *)
let motion_off_config ?(k = 200) () =
  Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized
    ~num_reader_particles:1 ~num_object_particles:k
    ~proposal:Rfid_core.Config.From_reported_location
    ~proposal_noise_override:(Some (Vec3.make 0.02 0.02 0.)) ()

let motion_off_params params =
  (* Zero proposal noise keeps the single reader particle exactly on the
     reported displacement track; tight sensing makes its weight
     irrelevant. *)
  {
    params with
    Params.motion =
      Motion_model.create ~velocity:Vec3.zero ~sigma:Vec3.zero ~heading_sigma:0. ();
    sensing = Location_sensing.create ~sigma:(Vec3.make 0.05 0.05 0.05) ();
  }

let run ?params ?(config = engine_config ()) ?(seed = 7) trace =
  Rfid_eval.Runner.run_engine ?params ~config ~seed trace

let uniform_events ?heading_of ~world ~range ~seed trace =
  Rfid_baselines.Uniform.run ~world ~read_range:range ?heading_of ~seed
    (Trace.observations trace)

let smurf_events ?heading_of ~world ~range ~seed trace =
  Rfid_baselines.Smurf.run ~world ~read_range:range ?heading_of ~seed
    (Trace.observations trace)

let xy_error events trace =
  (Rfid_eval.Metrics.inference_error events trace).Rfid_eval.Metrics.mean_xy
