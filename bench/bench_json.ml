(* Machine-readable filter benchmark: one JSON file per run, so the
   perf trajectory is comparable across PRs without scraping tables.

   Emits one point per (variant, object count) on the standard
   warehouse workload. Every run is seeded; accuracy is recorded next to throughput so a speedup that
   trades away error is visible in the same file. *)

type point = {
  pt_variant : string;
  pt_objects : int;
  pt_epochs : int;
  pt_readings : int;
  pt_elapsed_s : float;
  pt_err_xy : float;
  pt_minor_words : float;  (* per epoch *)
  pt_major_words : float;  (* per epoch, promotions excluded *)
  pt_lat_p50_us : float;
  pt_lat_p95_us : float;
  pt_lat_p99_us : float;
  pt_sat_hits : int;  (* kernel evaluations skipped by saturation cull *)
  pt_sat_rate : float;  (* hits / (hits + evaluations run) *)
  pt_mean_budget : float;  (* mean per-object particle budget (0 = not tracked) *)
  pt_skip_rate : float;  (* ESS-cap vetoes / resample decisions *)
}

let ns_per_epoch p =
  if p.pt_epochs = 0 then 0. else 1e9 *. p.pt_elapsed_s /. float_of_int p.pt_epochs

let epochs_per_sec p =
  if p.pt_elapsed_s <= 0. then 0. else float_of_int p.pt_epochs /. p.pt_elapsed_s

(* Saturation-cull accounting: the filters record both the kernel
   evaluations skipped by the exact saturation cull and the ones
   actually run, so each point can carry its cull hit rate. Deltas
   around the run keep points independent of whatever ran earlier in
   the process. *)
let c_sat = Rfid_obs.Metrics.counter "health.saturated_particles"
let c_evals = Rfid_obs.Metrics.counter "health.sensor_evals"

(* Adaptive-effort accounting: the filters observe every active
   object's current particle budget into health.object_budget each
   epoch, and count ESS-cap vetoes next to the resamples that did run,
   so each point carries its mean budget and skip rate. *)
let c_skipped = Rfid_obs.Metrics.counter "filter.resamples_skipped"
let c_obj_rs = Rfid_obs.Metrics.counter "filter.object_resamples"
let c_reader_rs = Rfid_obs.Metrics.counter "filter.reader_resamples"
let c_joint_rs = Rfid_obs.Metrics.counter "filter.joint_resamples"
let h_budget = Rfid_obs.Metrics.histogram "health.object_budget"

let run_point ?min_object_particles ?resample_ess_ratio ~variant ~label ~objects
    ~params ~trace () =
  Printf.printf "  ... %-16s n=%-5d%!" label objects;
  let config =
    Scenarios.engine_config ~variant ?min_object_particles ?resample_ess_ratio ()
  in
  let sat0 = Rfid_obs.Metrics.counter_value c_sat in
  let ev0 = Rfid_obs.Metrics.counter_value c_evals in
  let sk0 = Rfid_obs.Metrics.counter_value c_skipped in
  let rs0 =
    Rfid_obs.Metrics.counter_value c_obj_rs
    + Rfid_obs.Metrics.counter_value c_reader_rs
    + Rfid_obs.Metrics.counter_value c_joint_rs
  in
  let bsum0 = Rfid_obs.Metrics.histogram_sum h_budget in
  let bcount0 = Rfid_obs.Metrics.histogram_count h_budget in
  let r = Rfid_eval.Runner.run_engine ~params ~config ~seed:7 trace in
  let sat = Rfid_obs.Metrics.counter_value c_sat - sat0 in
  let ev = Rfid_obs.Metrics.counter_value c_evals - ev0 in
  let skipped = Rfid_obs.Metrics.counter_value c_skipped - sk0 in
  let resampled =
    Rfid_obs.Metrics.counter_value c_obj_rs
    + Rfid_obs.Metrics.counter_value c_reader_rs
    + Rfid_obs.Metrics.counter_value c_joint_rs
    - rs0
  in
  let bsum = Rfid_obs.Metrics.histogram_sum h_budget -. bsum0 in
  let bcount = Rfid_obs.Metrics.histogram_count h_budget - bcount0 in
  let epochs = Rfid_model.Trace.epochs trace in
  Printf.printf "  %7.1f epochs/s\n%!"
    (if r.Rfid_eval.Runner.elapsed_s > 0. then
       float_of_int epochs /. r.Rfid_eval.Runner.elapsed_s
     else 0.);
  {
    pt_variant = label;
    pt_objects = objects;
    pt_epochs = epochs;
    pt_readings = r.Rfid_eval.Runner.total_readings;
    pt_elapsed_s = r.Rfid_eval.Runner.elapsed_s;
    pt_err_xy = r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy;
    pt_minor_words = r.Rfid_eval.Runner.minor_words_per_epoch;
    pt_major_words = r.Rfid_eval.Runner.major_words_per_epoch;
    pt_lat_p50_us = r.Rfid_eval.Runner.lat_p50_us;
    pt_lat_p95_us = r.Rfid_eval.Runner.lat_p95_us;
    pt_lat_p99_us = r.Rfid_eval.Runner.lat_p99_us;
    pt_sat_hits = sat;
    pt_sat_rate = (if sat + ev > 0 then float_of_int sat /. float_of_int (sat + ev) else 0.);
    pt_mean_budget = (if bcount > 0 then bsum /. float_of_int bcount else 0.);
    pt_skip_rate =
      (if skipped + resampled > 0 then
         float_of_int skipped /. float_of_int (skipped + resampled)
       else 0.);
  }

(* One fault-injected run through the ingest guard, so the bench file
   also tracks robustness-path throughput and the guard's intervention
   counters (schema-additive: the "robustness" key rides along with the
   existing points). *)
type robust_point = {
  rp_objects : int;
  rp_epochs : int;
  rp_elapsed_s : float;
  rp_events : int;
  rp_degraded_events : int;
  rp_ingest : (string * int) list;
  rp_engine : Rfid_core.Engine.stats;
}

let run_robust_point ~objects ~params ~(trace : Rfid_model.Trace.t) =
  Printf.printf "  ... %-16s n=%-5d faulted%!" "robust+ingest" objects;
  let faults =
    Rfid_sim.Faults.make ~drop_prob:0.1 ~nan_fix_prob:0.05 ~outage:(100, 50) ()
  in
  let observations =
    Rfid_sim.Faults.apply faults ~seed:7 (Rfid_model.Trace.observations trace)
  in
  let config =
    Scenarios.engine_config ~variant:Rfid_core.Config.Factorized_indexed ()
  in
  let engine =
    Rfid_core.Engine.create ~world:trace.Rfid_model.Trace.world ~params ~config
      ~init_reader:trace.Rfid_model.Trace.steps.(0).Rfid_model.Trace.true_reader
      ~num_objects:trace.Rfid_model.Trace.num_objects ~seed:7 ()
  in
  let guard =
    Rfid_robust.Ingest.create
      ~bounds:(Rfid_model.World.bounding_box trace.Rfid_model.Trace.world)
      ~max_object_id:trace.Rfid_model.Trace.num_objects ()
  in
  let t0 = Rfid_obs.Metrics.now () in
  let events =
    match Rfid_robust.Ingest.run_engine guard engine observations with
    | Ok events -> events
    | Error (_, msg) -> failwith msg
  in
  let elapsed_s = Rfid_obs.Metrics.now () -. t0 in
  let stats = Rfid_core.Engine.stats engine in
  Printf.printf "  %7.1f epochs/s\n%!"
    (if elapsed_s > 0. then float_of_int (List.length observations) /. elapsed_s else 0.);
  {
    rp_objects = objects;
    rp_epochs = List.length observations;
    rp_elapsed_s = elapsed_s;
    rp_events = List.length events;
    rp_degraded_events =
      List.length (List.filter (fun e -> e.Rfid_core.Event.ev_degraded) events);
    rp_ingest =
      List.map
        (fun (f, n) -> (Rfid_robust.Ingest.fault_name f, n))
        (Rfid_robust.Ingest.counters guard);
    rp_engine = stats;
  }

(* Durability-path costs: snapshot codec latency and size plus WAL
   append cost, so a codec or framing change shows up in the same
   diffable file as the filter throughput it protects. Timing the
   save/load pair through [Checkpoint] (not just the pure codec) also
   populates the stage.checkpoint_* and stage.wal_append histograms in
   the "stages" block below. *)
type durability_point = {
  dp_objects : int;
  dp_snapshot_bytes : int;
  dp_encode_us : float;  (* pure codec, snapshot -> bytes *)
  dp_decode_us : float;  (* pure codec, bytes -> snapshot *)
  dp_save_us : float;  (* full checkpoint save: encode + fsync + rename *)
  dp_load_us : float;  (* full checkpoint load: read + verify + decode *)
  dp_wal_append_us : float;  (* per record, fsync every 8 *)
  dp_wal_bytes_per_record : float;
}

let run_durability_point ~objects ~params ~(trace : Rfid_model.Trace.t) =
  Printf.printf "  ... %-16s n=%-5d codec+wal%!" "durability" objects;
  let config =
    Scenarios.engine_config ~variant:Rfid_core.Config.Factorized_indexed ()
  in
  let engine =
    Rfid_core.Engine.create ~world:trace.Rfid_model.Trace.world ~params ~config
      ~init_reader:trace.Rfid_model.Trace.steps.(0).Rfid_model.Trace.true_reader
      ~num_objects:trace.Rfid_model.Trace.num_objects ~seed:7 ()
  in
  let prefix =
    List.filteri (fun i _ -> i < 150) (Rfid_model.Trace.observations trace)
  in
  List.iter (fun o -> ignore (Rfid_core.Engine.step engine o)) prefix;
  let snap = Rfid_core.Engine.snapshot engine in
  let time_us reps f =
    let t0 = Rfid_obs.Metrics.now () in
    for _ = 1 to reps do f () done;
    1e6 *. (Rfid_obs.Metrics.now () -. t0) /. float_of_int reps
  in
  let data = Rfid_robust.Codec.encode snap in
  let encode_us = time_us 10 (fun () -> ignore (Rfid_robust.Codec.encode snap)) in
  let decode_us =
    time_us 10 (fun () ->
        match Rfid_robust.Codec.decode data with
        | Ok _ -> ()
        | Error msg -> failwith ("bench durability: " ^ msg))
  in
  let ckpt = Filename.temp_file "bench_ckpt" ".bin" in
  let save_us = time_us 5 (fun () -> Rfid_robust.Checkpoint.save ~path:ckpt snap) in
  let load_us =
    time_us 5 (fun () -> ignore (Rfid_robust.Checkpoint.load_exn ~path:ckpt))
  in
  Sys.remove ckpt;
  let wal_path = Filename.temp_file "bench_wal" ".log" in
  let w = Rfid_robust.Wal.create_writer ~fsync_every:8 ~path:wal_path () in
  let wal_append_us =
    time_us 1 (fun () ->
        List.iter (fun o -> Rfid_robust.Wal.append w (Rfid_robust.Wal.Step o)) prefix;
        Rfid_robust.Wal.close w)
    /. float_of_int (List.length prefix)
  in
  let wal_bytes = (Unix.stat wal_path).Unix.st_size in
  Sys.remove wal_path;
  Printf.printf "  %8d snapshot bytes\n%!" (String.length data);
  {
    dp_objects = trace.Rfid_model.Trace.num_objects;
    dp_snapshot_bytes = String.length data;
    dp_encode_us = encode_us;
    dp_decode_us = decode_us;
    dp_save_us = save_us;
    dp_load_us = load_us;
    dp_wal_append_us = wal_append_us;
    dp_wal_bytes_per_record =
      float_of_int wal_bytes /. float_of_int (List.length prefix);
  }

let durability_json dp =
  Printf.sprintf
    "  \"durability\": {\"workload\": \"factorized+index snapshot after 150 epochs, \
     wal fsync_every 8, seed 7\", \"objects\": %d, \"snapshot_bytes\": %d, \
     \"codec_encode_us\": %.1f, \"codec_decode_us\": %.1f, \"checkpoint_save_us\": \
     %.1f, \"checkpoint_load_us\": %.1f, \"wal_append_us\": %.2f, \
     \"wal_bytes_per_record\": %.1f}"
    dp.dp_objects dp.dp_snapshot_bytes dp.dp_encode_us dp.dp_decode_us dp.dp_save_us
    dp.dp_load_us dp.dp_wal_append_us dp.dp_wal_bytes_per_record

let robust_json rp =
  let counters =
    String.concat ", "
      (List.map (fun (name, n) -> Printf.sprintf "%S: %d" name n) rp.rp_ingest)
  in
  Printf.sprintf
    "  \"robustness\": {\"workload\": \"drop=10%% nan=5%% outage=[100,150), seed 7\", \
     \"objects\": %d, \"epochs\": %d, \"elapsed_s\": %.6f, \"events\": %d, \
     \"degraded_events\": %d, \"degraded_epochs\": %d, \"ingest_counters\": {%s}}"
    rp.rp_objects rp.rp_epochs rp.rp_elapsed_s rp.rp_events rp.rp_degraded_events
    rp.rp_engine.Rfid_core.Engine.degraded_epochs counters

(* Per-stage timing block, from the observability registry: one entry
   per "stage.*" span recorded during this bench process, quantiles in
   microseconds. Bench runs reset the registry on entry, so the block
   covers exactly the points above it. *)
let stages_json () =
  let module Obs = Rfid_obs.Metrics in
  let stages =
    List.filter
      (fun (name, _) -> String.length name > 6 && String.sub name 0 6 = "stage.")
      (Obs.histograms_list Obs.global)
  in
  let entry (name, h) =
    let q p = 1e6 *. Obs.quantile h p in
    Printf.sprintf
      "    %S: {\"count\": %d, \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}"
      name (Obs.histogram_count h) (q 0.5) (q 0.95) (q 0.99)
  in
  String.concat ",\n" (List.map entry stages)

let emit ?(extra = []) oc points robust durability =
  let host_cores = Domain.recommended_domain_count () in
  let point_json p =
    Printf.sprintf
      "    {\"variant\": %S, \"objects\": %d, \"epochs\": %d, \
       \"readings\": %d, \"elapsed_s\": %.6f, \"ns_per_epoch\": %.1f, \
       \"epochs_per_sec\": %.2f, \"err_xy_ft\": %.4f, \
       \"minor_words_per_epoch\": %.1f, \"major_words_per_epoch\": %.1f, \
       \"lat_p50_us\": %.1f, \"lat_p95_us\": %.1f, \"lat_p99_us\": %.1f, \
       \"sat_cull_hits\": %d, \"sat_cull_rate\": %.4f, \
       \"mean_budget\": %.1f, \"resample_skip_rate\": %.4f}"
      p.pt_variant p.pt_objects p.pt_epochs p.pt_readings p.pt_elapsed_s
      (ns_per_epoch p) (epochs_per_sec p) p.pt_err_xy p.pt_minor_words p.pt_major_words
      p.pt_lat_p50_us p.pt_lat_p95_us p.pt_lat_p99_us p.pt_sat_hits p.pt_sat_rate p.pt_mean_budget p.pt_skip_rate
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench_filter/v9\",\n\
    \  \"workload\": \"warehouse straight pass, J=100, K=200, resample_ess=1.0, \
     min_particles=200, seed 7; f+index+adaptive points: resample_ess=0.25, \
     min_particles=32\",\n\
    \  \"host_cores\": %d,\n\
    \  \"points\": [\n%s\n\
    \  ],\n\
    \  \"stages\": {\n%s\n\
    \  },\n\
     %s,\n\
     %s%s\n\
     }\n"
    host_cores
    (String.concat ",\n" (List.map point_json points))
    (stages_json ())
    (robust_json robust)
    (durability_json durability)
    (String.concat "" (List.map (fun block -> ",\n" ^ block) extra))

(* Canonical adaptive-effort knobs: the bench's speed/accuracy
   trade-off points all use this one setting so the trajectory stays
   comparable across PRs. *)
let adaptive_min_particles = 32

(* Below the classic 0.5 trigger on purpose: a cap at or above the
   trigger never vetoes anything (the conjunction is empty). 0.25
   skips the mildly-degenerate resamples — which also preserves
   particle diversity; on the 5000-object workload it measured both
   faster AND closer to the fixed-budget error than a vacuous cap. *)
let adaptive_resample_ess = 0.25
let adaptive_label = "f+index+adaptive"

let adaptive_point ~objects ~params ~trace =
  run_point ~variant:Rfid_core.Config.Factorized_indexed ~label:adaptive_label
    ~min_object_particles:adaptive_min_particles
    ~resample_ess_ratio:adaptive_resample_ess ~objects ~params ~trace ()

let adaptive_check_json ~scaling_n ~points =
  let find label =
    List.find_opt (fun p -> p.pt_variant = label && p.pt_objects = scaling_n) points
  in
  match (find "factorized+index", find adaptive_label) with
  | Some fixed, Some adaptive ->
      let nf = ns_per_epoch fixed and na = ns_per_epoch adaptive in
      [
        Printf.sprintf
          "  \"adaptive_check\": {\"knobs\": \"resample_ess=%.2f, min_particles=%d\", \
           \"speedup_workload\": \"factorized+index fixed vs adaptive, %d objects\", \
           \"ns_per_epoch_fixed\": %.1f, \"ns_per_epoch_adaptive\": %.1f, \
           \"speedup\": %.3f, \"err_xy_ft_fixed\": %.4f, \"err_xy_ft_adaptive\": %.4f, \
           \"err_ratio\": %.4f, \"mean_budget\": %.1f, \"resample_skip_rate\": %.4f}"
          adaptive_resample_ess adaptive_min_particles scaling_n nf na
          (if na > 0. then nf /. na else 0.)
          fixed.pt_err_xy adaptive.pt_err_xy
          (if fixed.pt_err_xy > 0. then adaptive.pt_err_xy /. fixed.pt_err_xy else 0.)
          adaptive.pt_mean_budget adaptive.pt_skip_rate;
      ]
  | _ -> []

(* Server-mode point: the RFID-SERVE/1 state machine measured
   in-process ([Rfid_serve.Core.handle_line] + [tick]), socket I/O
   excluded on purpose — the wire adds client-dependent latency, while
   this pins what the server itself costs per epoch and per query. Each
   ingested epoch is chased by one sliding-window RANGE and one AT, as
   a monitoring client polling the live posteriors would; ingest time
   and query latency are accumulated separately. The recipe is written
   up in EXPERIMENTS.md ("Server-mode throughput"). *)

type serving_point = {
  sp_objects : int;
  sp_epochs : int;
  sp_ingest_s : float;
  sp_range_lat : float array;  (** sorted, seconds *)
  sp_at_lat : float array;  (** sorted, seconds *)
  sp_fit_hits : int;  (** AT answers served from the fit cache *)
  sp_index_updates : int;  (** per-object refits during the run *)
  sp_full_rebuilds : int;  (** wholesale cache rebuilds (expect 1) *)
}

(* Query-maintenance accounting: the serve layer counts per-object
   refits, AT cache hits and wholesale rebuilds; deltas around the run
   keep points independent. *)
let c_fit_hits = Rfid_obs.Metrics.counter "query.fit_cache_hits"
let c_idx_updates = Rfid_obs.Metrics.counter "query.index_updates"
let c_rebuilds = Rfid_obs.Metrics.counter "query.full_rebuilds"

let lat_quantile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    1e6 *. sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

(* Reference probe height shared by every serving point: 1/8 of the
   500-object warehouse's y extent (the warehouse is one aisle that
   grows along y, so y is the axis that scales with object count). *)
let serving_window_h =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:500 () in
     let bb = Rfid_model.World.bounding_box wh.Rfid_sim.Warehouse.world in
     (bb.Rfid_geom.Box2.max_y -. bb.Rfid_geom.Box2.min_y) /. 8.)

let run_serving_point ~objects ~rounds () =
  Printf.printf "  ... %-16s n=%-5d%!" "serving" objects;
  let seed = 7 in
  let boot = Rfid_serve.Bootstrap.make ~objects ~seed ~particles:100 () in
  let wh = Rfid_sim.Warehouse.layout ~num_objects:objects () in
  let sensor = Rfid_sim.Truth_sensor.cone () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds)
      ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
      (Rfid_prob.Rng.create ~seed)
  in
  let put_lines =
    Rfid_model.Trace.observations trace
    |> List.map (fun o -> "PUT " ^ Rfid_model.Trace_io.observation_to_line o)
  in
  let core =
    Rfid_serve.Core.create
      ~guard:(Rfid_serve.Bootstrap.fresh_guard boot)
      ~engine:(Rfid_serve.Bootstrap.fresh_engine boot)
      ~num_objects:objects ()
  in
  (* Fixed-size RANGE windows tiling the world's y extent (full aisle
     width in x), cycled per epoch, so probes hit dense and empty
     regions alike. The height is absolute — 1/8 of the reference
     500-object warehouse — so each probe's answer volume tracks local
     density, not universe size: the latency this measures is query
     maintenance plus a bounded hit set, which is exactly the cost the
     incremental query layer is supposed to pin. (The v7 workload
     sliced the 1 ft x extent into 8 strips spanning the whole aisle,
     so every probe returned O(objects) answers and p95 measured reply
     volume, not maintenance.) *)
  let world_box =
    Rfid_model.World.bounding_box (Rfid_serve.Bootstrap.world boot)
  in
  let extent =
    world_box.Rfid_geom.Box2.max_y -. world_box.Rfid_geom.Box2.min_y
  in
  let span = Lazy.force serving_window_h in
  let windows = Int.max 1 (int_of_float (Float.round (extent /. span))) in
  let range_query i =
    let lo = world_box.Rfid_geom.Box2.min_y +. (span *. float_of_int (i mod windows)) in
    Printf.sprintf "RANGE %.3f %.3f %.3f %.3f 0.05"
      world_box.Rfid_geom.Box2.min_x lo world_box.Rfid_geom.Box2.max_x
      (lo +. span)
  in
  let range_lat = ref [] and at_lat = ref [] in
  let ingest_s = ref 0. in
  let epoch_i = ref 0 in
  let hits0 = Rfid_obs.Metrics.counter_value c_fit_hits in
  let upd0 = Rfid_obs.Metrics.counter_value c_idx_updates in
  let reb0 = Rfid_obs.Metrics.counter_value c_rebuilds in
  List.iter
    (fun line ->
      let t0 = Rfid_obs.Metrics.now () in
      ignore (Rfid_serve.Core.handle_line core line);
      ignore (Rfid_serve.Core.tick core ~max_steps:256);
      let t1 = Rfid_obs.Metrics.now () in
      ingest_s := !ingest_s +. (t1 -. t0);
      ignore (Rfid_serve.Core.handle_line core (range_query !epoch_i));
      let t2 = Rfid_obs.Metrics.now () in
      range_lat := (t2 -. t1) :: !range_lat;
      ignore
        (Rfid_serve.Core.handle_line core
           (Printf.sprintf "AT %d" (!epoch_i mod objects)));
      at_lat := (Rfid_obs.Metrics.now () -. t2) :: !at_lat;
      incr epoch_i)
    put_lines;
  ignore (Rfid_serve.Core.handle_line core "SYNC");
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  let sp =
    {
      sp_objects = objects;
      sp_epochs = !epoch_i;
      sp_ingest_s = !ingest_s;
      sp_range_lat = sorted !range_lat;
      sp_at_lat = sorted !at_lat;
      sp_fit_hits = Rfid_obs.Metrics.counter_value c_fit_hits - hits0;
      sp_index_updates = Rfid_obs.Metrics.counter_value c_idx_updates - upd0;
      sp_full_rebuilds = Rfid_obs.Metrics.counter_value c_rebuilds - reb0;
    }
  in
  Printf.printf "  %7.0f epochs/s ingest, range p95 %.0f us\n%!"
    (float_of_int sp.sp_epochs /. Float.max 1e-9 sp.sp_ingest_s)
    (lat_quantile_us sp.sp_range_lat 0.95);
  sp

let serving_point_json sp =
  (* One AT per epoch, so the hit rate is hits per AT query. *)
  let at_queries = Float.max 1. (float_of_int sp.sp_epochs) in
  Printf.sprintf
    "    {\"objects\": %d, \"epochs\": %d, \
     \"ingest_elapsed_s\": %.6f, \"ingest_epochs_per_sec\": %.2f, \
     \"range_p50_us\": %.1f, \"range_p95_us\": %.1f, \"range_p99_us\": %.1f, \
     \"at_p50_us\": %.1f, \"at_p95_us\": %.1f, \
     \"fit_cache_hits\": %d, \"fit_cache_hit_rate\": %.4f, \
     \"index_updates\": %d, \"full_rebuilds\": %d}"
    sp.sp_objects sp.sp_epochs sp.sp_ingest_s
    (float_of_int sp.sp_epochs /. Float.max 1e-9 sp.sp_ingest_s)
    (lat_quantile_us sp.sp_range_lat 0.5)
    (lat_quantile_us sp.sp_range_lat 0.95)
    (lat_quantile_us sp.sp_range_lat 0.99)
    (lat_quantile_us sp.sp_at_lat 0.5)
    (lat_quantile_us sp.sp_at_lat 0.95)
    sp.sp_fit_hits
    (float_of_int sp.sp_fit_hits /. at_queries)
    sp.sp_index_updates sp.sp_full_rebuilds

let serving_json sps =
  (* p95 scaling ratio between the smallest and largest point: the
     incremental query path's headline claim is that RANGE cost follows
     dirty+hits, not universe size, so this should stay near 1. *)
  let ratio_field =
    match List.sort (fun a b -> Int.compare a.sp_objects b.sp_objects) sps with
    | small :: (_ :: _ as rest) ->
        let big = List.nth rest (List.length rest - 1) in
        let ps = lat_quantile_us small.sp_range_lat 0.95 in
        let pb = lat_quantile_us big.sp_range_lat 0.95 in
        Printf.sprintf ",\n    \"range_p95_scaling_ratio\": %.3f"
          (if ps > 0. then pb /. ps else 0.)
    | _ -> ""
  in
  Printf.sprintf
    "  \"serving\": {\"workload\": \"in-process RFID-SERVE/1 core: PUT+tick per \
     epoch chased by one sliding-window RANGE (fixed-size windows tiling y, \
     1/8 of the 500-object world's aisle, min-mass 0.05) and one AT, K=100, \
     seed 7; socket I/O excluded; incremental maintenance (dirty-set fit cache \
     + dynamic index)\",\n\
     \    \"points\": [\n%s\n    ]%s}"
    (String.concat ",\n" (List.map serving_point_json sps))
    ratio_field

let run ~path ~large =
  Printf.printf "bench --json: filter throughput -> %s\n%!" path;
  (* Scope the "stages" block to this run, not whatever ran earlier in
     the process (e.g. warm-up or other bench modes). *)
  Rfid_obs.Metrics.reset Rfid_obs.Metrics.global;
  let sizes = if large then [ 500; 2000; 5000; 10000 ] else [ 500; 2000; 5000 ] in
  let scaling_n = List.fold_left Int.max 0 sizes in
  let params = Scenarios.cone_params () in
  let points = ref [] in
  let add p = points := p :: !points in
  List.iter
    (fun objects ->
      let built = Scenarios.warehouse_trace ~num_objects:objects ~seed:111 () in
      let trace = built.Scenarios.trace in
      if objects <= 500 then
        add
          (run_point ~variant:Rfid_core.Config.Factorized ~label:"factorized" ~objects
             ~params ~trace ());
      add
        (run_point ~variant:Rfid_core.Config.Factorized_indexed ~label:"factorized+index"
           ~objects ~params ~trace ());
      add
        (run_point ~variant:Rfid_core.Config.Factorized_compressed
           ~label:"f+index+compress" ~objects ~params ~trace ());
      add (adaptive_point ~objects ~params ~trace))
    sizes;
  let small_objects = List.fold_left Int.min max_int sizes in
  let small_built = Scenarios.warehouse_trace ~num_objects:small_objects ~seed:111 () in
  let robust, durability =
    ( run_robust_point ~objects:small_objects ~params ~trace:small_built.Scenarios.trace,
      run_durability_point ~objects:small_objects ~params
        ~trace:small_built.Scenarios.trace )
  in
  let points = List.rev !points in
  let extra =
    adaptive_check_json ~scaling_n ~points
    @ [
        serving_json
          [
            run_serving_point ~objects:500 ~rounds:1 ();
            run_serving_point ~objects:5000 ~rounds:1 ();
          ];
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> emit ~extra oc points robust durability);
  Printf.printf "wrote %d points to %s\n%!" (List.length points) path

(* Allocation regression gate. A small fixed workload is measured and
   its per-epoch allocated words compared against the committed
   baseline (BENCH_baseline.json); more than [tolerance] over fails.
   The workload is deliberately modest (~1 s) so the gate can ride
   along with `make test`. Update the baseline deliberately — after a
   change that legitimately shifts the allocation profile — with
   `make perf-baseline`, and commit the file with that change. *)

let gate_workload = "warehouse straight pass, 200 objects, J=100, K=200, seed 7"
let gate_tolerance = 0.10

(* Accuracy bound: mean XY error on the gate workload may exceed the
   committed baseline by at most this factor, and the check is fatal —
   the whole point of recording accuracy next to throughput is that a
   speedup which quietly trades away error must not pass the gate. The
   workload is seeded and single-domain, so the measured error is
   exactly reproducible; the 5% headroom only absorbs legitimate
   baseline refreshes on other machines' floating-point quirks. *)
let err_max_ratio = 1.05

(* The scaling guard pins the index's O(sensing scope) promise at the
   allocation level: per-epoch minor words for factorized+index at
   5000 objects may exceed the 500-object figure by at most the
   baseline's recorded factor. Anything that sneaks an O(total
   objects) term back into the per-epoch path (a full staleness sweep,
   a per-epoch set rebuild) blows well past it. *)
let scaling_workload =
  "factorized+index minor words/epoch, 5000 vs 500 objects, J=100, K=200, seed 7"

let scaling_max_ratio = 1.5

let gate_trace = lazy (Scenarios.warehouse_trace ~num_objects:200 ~seed:111 ())

let measure_gate ?min_object_particles ?resample_ess_ratio variant =
  let params = Scenarios.cone_params () in
  let built = Lazy.force gate_trace in
  let config =
    Scenarios.engine_config ~variant ?min_object_particles ?resample_ess_ratio ()
  in
  Rfid_eval.Runner.run_engine ~params ~config ~seed:7 built.Scenarios.trace

let measure_gate_adaptive () =
  measure_gate ~min_object_particles:adaptive_min_particles
    ~resample_ess_ratio:adaptive_resample_ess Rfid_core.Config.Factorized_indexed

let measure_scaling () =
  let params = Scenarios.cone_params () in
  let config =
    Scenarios.engine_config ~variant:Rfid_core.Config.Factorized_indexed ()
  in
  let words n =
    let built = Scenarios.warehouse_trace ~num_objects:n ~seed:111 () in
    let r = Rfid_eval.Runner.run_engine ~params ~config ~seed:7 built.Scenarios.trace in
    r.Rfid_eval.Runner.minor_words_per_epoch
  in
  let small = words 500 in
  let big = words 5000 in
  (small, big, if small > 0. then big /. small else infinity)

(* Allocation bound on the supervised sensor fit (Supervised.fit_sensor
   at seed 99 on the default cone). Boots ship that fit's result as a
   constant, but `infer --read-rate` fits at runtime and EM refits the
   sensor every round through the same Newton loop. The fit makes
   284,061 minor words: the 20,000 feature rows and the boxed floats of
   its draws, plus each Newton step's small solve. The bound is under
   twice that, so an allocation per sample back in the Newton loop
   fails the gate (the two-pass fit made 17.06 M). The count is exact,
   so the check is fatal. *)
let fit_workload = "Supervised.fit_sensor, default cone, 20000 samples, seed 99"
let fit_max_minor_words = 500_000.

let measure_fit_minor_words () =
  let cone = Rfid_sim.Truth_sensor.cone () in
  let before = Gc.minor_words () in
  ignore
    (Rfid_learn.Supervised.fit_sensor ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
       ~seed:99 ());
  Gc.minor_words () -. before

(* Allocation bound on a default boot's fixture, what `serve` builds
   before it listens. It takes the sensor constant and allocates 64,436
   minor words, mostly the 5000-object warehouse; a boot that fits the
   sensor again adds the fit's 284,061 (348,509 in all) and fails.
   Exact, so fatal. *)
let boot_workload = "Bootstrap.make, 5000 objects, default cone"
let boot_max_minor_words = 100_000.

let measure_boot_minor_words () =
  let before = Gc.minor_words () in
  ignore (Rfid_serve.Bootstrap.make ~objects:5000 ~seed:7 ());
  Gc.minor_words () -. before

(* The time bound is generous — wall-clock on a shared machine is far
   noisier than allocation counts, which are exact — and the check it
   feeds is warn-only unless explicitly promoted (PERF_GATE_TIME_FATAL,
   `make perf-gate-strict`). *)
let time_max_ratio = 2.0

let run_ns_per_epoch (r : Rfid_eval.Runner.result) =
  if r.Rfid_eval.Runner.epochs = 0 then 0.
  else 1e9 *. r.Rfid_eval.Runner.elapsed_s /. float_of_int r.Rfid_eval.Runner.epochs

let adaptive_gate_workload =
  Printf.sprintf
    "warehouse straight pass, 200 objects, J=100, K=200, resample_ess=%.2f, \
     min_particles=%d, seed 7"
    adaptive_resample_ess adaptive_min_particles

let serving_gate_workload =
  "in-process serving RANGE p95: 500 objects, straight pass, 8 fixed-size \
   windows tiling y, min-mass 0.05, K=100, seed 7"

let write_baseline ~path =
  Printf.printf "bench --perf-baseline: measuring %s\n%!" gate_workload;
  let ri = measure_gate Rfid_core.Config.Factorized_indexed in
  let rc = measure_gate Rfid_core.Config.Factorized_compressed in
  Printf.printf "bench --perf-baseline: measuring %s\n%!" adaptive_gate_workload;
  let ra = measure_gate_adaptive () in
  Printf.printf "bench --perf-baseline: measuring %s\n%!" scaling_workload;
  let small, big, ratio = measure_scaling () in
  Printf.printf "bench --perf-baseline: measuring %s\n%!" serving_gate_workload;
  let sv = run_serving_point ~objects:500 ~rounds:1 () in
  let serving_p95 = lat_quantile_us sv.sp_range_lat 0.95 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"bench_baseline/v7\",\n\
        \  \"workload\": %S,\n\
        \  \"epochs\": %d,\n\
        \  \"indexed_minor_words_per_epoch\": %.1f,\n\
        \  \"indexed_major_words_per_epoch\": %.1f,\n\
        \  \"indexed_allocated_words_per_epoch\": %.1f,\n\
        \  \"indexed_ns_per_epoch\": %.1f,\n\
        \  \"indexed_err_xy_ft\": %.4f,\n\
        \  \"compressed_minor_words_per_epoch\": %.1f,\n\
        \  \"compressed_major_words_per_epoch\": %.1f,\n\
        \  \"compressed_allocated_words_per_epoch\": %.1f,\n\
        \  \"compressed_ns_per_epoch\": %.1f,\n\
        \  \"compressed_err_xy_ft\": %.4f,\n\
        \  \"adaptive_workload\": %S,\n\
        \  \"adaptive_minor_words_per_epoch\": %.1f,\n\
        \  \"adaptive_major_words_per_epoch\": %.1f,\n\
        \  \"adaptive_allocated_words_per_epoch\": %.1f,\n\
        \  \"adaptive_ns_per_epoch\": %.1f,\n\
        \  \"adaptive_err_xy_ft\": %.4f,\n\
        \  \"err_max_ratio\": %.2f,\n\
        \  \"time_max_ratio\": %.2f,\n\
        \  \"scaling_workload\": %S,\n\
        \  \"scaling_small_minor_words\": %.1f,\n\
        \  \"scaling_big_minor_words\": %.1f,\n\
        \  \"scaling_ratio_measured\": %.3f,\n\
        \  \"scaling_max_ratio\": %.2f,\n\
        \  \"serving_workload\": %S,\n\
        \  \"serving_range_p95_us\": %.1f\n\
         }\n"
        gate_workload ri.Rfid_eval.Runner.epochs
        ri.Rfid_eval.Runner.minor_words_per_epoch
        ri.Rfid_eval.Runner.major_words_per_epoch
        ri.Rfid_eval.Runner.allocated_words_per_epoch (run_ns_per_epoch ri)
        ri.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy
        rc.Rfid_eval.Runner.minor_words_per_epoch
        rc.Rfid_eval.Runner.major_words_per_epoch
        rc.Rfid_eval.Runner.allocated_words_per_epoch (run_ns_per_epoch rc)
        rc.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy adaptive_gate_workload
        ra.Rfid_eval.Runner.minor_words_per_epoch
        ra.Rfid_eval.Runner.major_words_per_epoch
        ra.Rfid_eval.Runner.allocated_words_per_epoch (run_ns_per_epoch ra)
        ra.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy err_max_ratio
        time_max_ratio scaling_workload small big ratio scaling_max_ratio
        serving_gate_workload serving_p95);
  Printf.printf
    "wrote baseline (indexed %.0f, compressed %.0f, adaptive %.0f allocated \
     words/epoch, indexed %.0f ns/epoch, err %.2f/%.2f/%.2f ft, scaling ratio \
     %.2f) to %s\n\
     %!"
    ri.Rfid_eval.Runner.allocated_words_per_epoch
    rc.Rfid_eval.Runner.allocated_words_per_epoch
    ra.Rfid_eval.Runner.allocated_words_per_epoch (run_ns_per_epoch ri)
    ri.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy
    rc.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy
    ra.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy ratio path

(* Minimal JSON number extraction — enough for the flat baseline file
   this module itself writes; no JSON library in the dependency set. *)
let json_number ~key s =
  let pat = Printf.sprintf "\"%s\"" key in
  let plen = String.length pat and slen = String.length s in
  let rec find i =
    if i + plen > slen then None
    else if String.sub s i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let i = ref i in
      while !i < slen && (s.[!i] = ':' || s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
      let j = ref !i in
      while
        !j < slen
        && (match s.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        incr j
      done;
      if !j = !i then None else float_of_string_opt (String.sub s !i (!j - !i))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_gate ~baseline_path =
  let contents =
    match read_file baseline_path with
    | exception Sys_error msg ->
        Printf.eprintf "perf-gate: cannot read %s (%s)\n" baseline_path msg;
        exit 2
    | s -> s
  in
  let number key =
    match json_number ~key contents with
    | Some v when v > 0. -> v
    | _ ->
        Printf.eprintf "perf-gate: no %s in %s (refresh with `make perf-baseline`)\n"
          key baseline_path;
        exit 2
  in
  let failed = ref false in
  (* Time bound: baseline's time_max_ratio unless PERF_GATE_TIME_RATIO
     overrides it (noisy CI machines want more slack). Time breaches
     warn by default and fail only under PERF_GATE_TIME_FATAL
     (`make perf-gate-strict`); the allocation bound stays fatal. *)
  let time_bound =
    match Sys.getenv_opt "PERF_GATE_TIME_RATIO" with
    | None | Some "" -> number "time_max_ratio"
    | Some s -> (
        match float_of_string_opt s with
        | Some v when v > 0. -> v
        | _ ->
            Printf.eprintf "perf-gate: PERF_GATE_TIME_RATIO=%S is not a positive number\n" s;
            exit 2)
  in
  let time_fatal =
    match Sys.getenv_opt "PERF_GATE_TIME_FATAL" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  let check_time label baseline_key (r : Rfid_eval.Runner.result) =
    let baseline = number baseline_key in
    let current = run_ns_per_epoch r in
    let limit = baseline *. time_bound in
    Printf.printf
      "perf-gate: %-16s %.0f ns/epoch (baseline %.0f, limit %.0f = %.2fx)\n%!" label
      current baseline limit time_bound;
    if current > limit then
      if time_fatal then begin
        Printf.eprintf
          "perf-gate: FAIL — %s ns/epoch exceeds %.2fx the committed baseline (time \
           bound promoted to fatal by PERF_GATE_TIME_FATAL).\n\
           If the slowdown is intended, refresh the baseline with `make \
           perf-baseline` and commit BENCH_baseline.json.\n"
          label time_bound;
        failed := true
      end
      else
        Printf.printf
          "perf-gate: WARN — %s ns/epoch exceeds %.2fx the committed baseline. \
           Wall-clock is noisy, so this does not fail the gate; rerun on a quiet \
           machine, or set PERF_GATE_TIME_FATAL=1 (`make perf-gate-strict`) to \
           enforce it.\n\
           %!"
          label time_bound
  in
  (* Accuracy bound: fatal, unlike the time bound — the gate workload
     is seeded and single-domain, so the measured error is exact, not
     noisy, and an accuracy regression is precisely what an
     effort-reduction optimisation must not smuggle through. *)
  let err_bound = number "err_max_ratio" in
  let check_err label baseline_key (r : Rfid_eval.Runner.result) =
    let baseline = number baseline_key in
    let current = r.Rfid_eval.Runner.error.Rfid_eval.Metrics.mean_xy in
    let limit = baseline *. err_bound in
    Printf.printf "perf-gate: %-16s %.3f ft err_xy (baseline %.3f, limit %.3f)\n%!"
      label current baseline limit;
    if current > limit then begin
      Printf.eprintf
        "perf-gate: FAIL — %s mean XY error exceeds %.2fx the committed baseline: \
         a throughput win is trading away accuracy.\n\
         If the accuracy shift is intended and justified, refresh the baseline \
         with `make perf-baseline` and commit BENCH_baseline.json.\n"
        label err_bound;
      failed := true
    end
  in
  let check_point label baseline_key (r : Rfid_eval.Runner.result) =
    let baseline = number baseline_key in
    let current = r.Rfid_eval.Runner.allocated_words_per_epoch in
    let limit = baseline *. (1. +. gate_tolerance) in
    Printf.printf
      "perf-gate: %-16s %.0f allocated words/epoch (baseline %.0f, limit %.0f, \
       minor %.0f, major %.0f)\n\
       %!"
      label current baseline limit r.Rfid_eval.Runner.minor_words_per_epoch
      r.Rfid_eval.Runner.major_words_per_epoch;
    if current > limit then begin
      Printf.eprintf
        "perf-gate: FAIL — %s per-epoch allocation regressed more than %.0f%% over \
         the committed baseline.\n\
         If the increase is intended, refresh the baseline with `make \
         perf-baseline` and commit BENCH_baseline.json.\n"
        label
        (100. *. gate_tolerance);
      failed := true
    end
  in
  Printf.printf "perf-gate: measuring %s\n%!" gate_workload;
  let ri = measure_gate Rfid_core.Config.Factorized_indexed in
  let rc = measure_gate Rfid_core.Config.Factorized_compressed in
  Printf.printf "perf-gate: measuring %s\n%!" adaptive_gate_workload;
  let ra = measure_gate_adaptive () in
  check_point "factorized+index" "indexed_allocated_words_per_epoch" ri;
  check_point "f+index+compress" "compressed_allocated_words_per_epoch" rc;
  check_point "f+index+adaptive" "adaptive_allocated_words_per_epoch" ra;
  check_err "factorized+index" "indexed_err_xy_ft" ri;
  check_err "f+index+compress" "compressed_err_xy_ft" rc;
  check_err "f+index+adaptive" "adaptive_err_xy_ft" ra;
  check_time "factorized+index" "indexed_ns_per_epoch" ri;
  check_time "f+index+compress" "compressed_ns_per_epoch" rc;
  check_time "f+index+adaptive" "adaptive_ns_per_epoch" ra;
  (* Serving latency: same warn-unless-strict policy as the other
     wall-clock checks — this is the number PR 10's incremental query
     maintenance exists to protect. *)
  Printf.printf "perf-gate: measuring %s\n%!" serving_gate_workload;
  let sv = run_serving_point ~objects:500 ~rounds:1 () in
  let s_baseline = number "serving_range_p95_us" in
  let s_current = lat_quantile_us sv.sp_range_lat 0.95 in
  let s_limit = s_baseline *. time_bound in
  Printf.printf
    "perf-gate: %-16s %.0f us range p95 (baseline %.0f, limit %.0f = %.2fx)\n%!"
    "serving" s_current s_baseline s_limit time_bound;
  if s_current > s_limit then
    if time_fatal then begin
      Printf.eprintf
        "perf-gate: FAIL — serving RANGE p95 exceeds %.2fx the committed baseline \
         (time bound promoted to fatal by PERF_GATE_TIME_FATAL).\n\
         If the slowdown is intended, refresh the baseline with `make \
         perf-baseline` and commit BENCH_baseline.json.\n"
        time_bound;
      failed := true
    end
    else
      Printf.printf
        "perf-gate: WARN — serving RANGE p95 exceeds %.2fx the committed baseline. \
         Wall-clock is noisy, so this does not fail the gate; rerun on a quiet \
         machine, or set PERF_GATE_TIME_FATAL=1 (`make perf-gate-strict`) to \
         enforce it.\n\
         %!"
        time_bound;
  Printf.printf "perf-gate: measuring %s\n%!" fit_workload;
  let fit_words = measure_fit_minor_words () in
  Printf.printf "perf-gate: %-16s %.0f minor words (limit %.0f)\n%!" "sensor fit" fit_words
    fit_max_minor_words;
  if fit_words > fit_max_minor_words then begin
    Printf.eprintf
      "perf-gate: FAIL — the sensor fit allocated %.0f minor words, over the %.0f \
       bound: a Newton step allocates per sample again.\n"
      fit_words fit_max_minor_words;
    failed := true
  end;
  Printf.printf "perf-gate: measuring %s\n%!" boot_workload;
  let boot_words = measure_boot_minor_words () in
  Printf.printf "perf-gate: %-16s %.0f minor words (limit %.0f)\n%!" "boot fixture"
    boot_words boot_max_minor_words;
  if boot_words > boot_max_minor_words then begin
    Printf.eprintf
      "perf-gate: FAIL — a default boot allocated %.0f minor words, over the %.0f \
       bound: it fits the sensor again instead of taking Bootstrap's constant.\n"
      boot_words boot_max_minor_words;
    failed := true
  end;
  Printf.printf "perf-gate: measuring %s\n%!" scaling_workload;
  let bound = number "scaling_max_ratio" in
  let small, big, ratio = measure_scaling () in
  Printf.printf
    "perf-gate: scaling ratio %.2f (500 objects: %.0f, 5000 objects: %.0f minor \
     words/epoch, bound %.2f)\n\
     %!"
    ratio small big bound;
  if ratio > bound then begin
    Printf.eprintf
      "perf-gate: FAIL — per-epoch allocation grows with total object count \
       (5000-vs-500 ratio %.2f > %.2f): an O(total objects) term is back in the \
       per-epoch path.\n"
      ratio bound;
    failed := true
  end;
  if !failed then exit 1 else Printf.printf "perf-gate: OK\n%!"

(* A seconds-scale end-to-end pass over the JSON-bench machinery — one
   small point per variant plus the faulted robustness point, emitted
   to a scratch file and re-parsed — so `make test` catches
   bench-harness bitrot without paying for the full sweep. *)
let smoke () =
  Printf.printf "bench --smoke: small end-to-end bench pass\n%!";
  Rfid_obs.Metrics.reset Rfid_obs.Metrics.global;
  let params = Scenarios.cone_params () in
  let objects = 100 in
  let built = Scenarios.warehouse_trace ~num_objects:objects ~seed:111 () in
  let trace = built.Scenarios.trace in
  let points =
    [
      run_point ~variant:Rfid_core.Config.Factorized ~label:"factorized" ~objects ~params
        ~trace ();
      run_point ~variant:Rfid_core.Config.Factorized_indexed ~label:"factorized+index"
        ~objects ~params ~trace ();
      run_point ~variant:Rfid_core.Config.Factorized_compressed
        ~label:"f+index+compress" ~objects ~params ~trace ();
      adaptive_point ~objects ~params ~trace;
    ]
  in
  let robust = run_robust_point ~objects ~params ~trace in
  let durability = run_durability_point ~objects ~params ~trace in
  let serving = run_serving_point ~objects ~rounds:1 () in
  let path = Filename.temp_file "bench_smoke" ".json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> emit ~extra:[ serving_json [ serving ] ] oc points robust durability);
  (* The emitted file must round-trip through the same extractor the
     gate uses on the committed baseline. *)
  let emitted = read_file path in
  let require_number key =
    match json_number ~key emitted with
    | Some _ -> ()
    | None ->
        Printf.eprintf "bench --smoke: emitted JSON missing %s\n" key;
        exit 1
  in
  require_number "minor_words_per_epoch";
  require_number "codec_encode_us";
  require_number "mean_budget";
  require_number "resample_skip_rate";
  require_number "ingest_epochs_per_sec";
  require_number "range_p95_us";
  require_number "fit_cache_hit_rate";
  require_number "index_updates";
  require_number "full_rebuilds";
  Sys.remove path;
  Printf.printf "bench --smoke: OK (%d points)\n%!" (List.length points)
