(* The incremental query layer against its ground truth: under random
   interleavings of normal steps, degraded (dead-reckoned) steps,
   snapshot/restore boundaries and queries, the long-lived [Query.t]
   that drains the engine's change feed must answer RANGE / AT / NEAR
   byte-identically to a throwaway [Query.t] that rebuilds its fit
   cache from scratch on the same engine. Separately, the change feed
   itself is checked for completeness: any object whose posterior
   estimate moved across a step must have been flagged dirty — across
   eviction, belief compression, adaptive particle budgets and
   degraded-mode widening. *)

module Engine = Rfid_core.Engine
module Config = Rfid_core.Config
module Query = Rfid_serve.Query
module Framing = Rfid_serve.Framing
module Trace = Rfid_model.Trace
module T = Rfid_model.Types
module Vec3 = Rfid_geom.Vec3
module Rng = Rfid_prob.Rng

let num_objects = 10

(* One simulated warehouse pass shared by every test in this file; the
   per-test randomness drives the interleaving, not the data. *)
let fixture =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects () in
     let sensor = Rfid_sim.Truth_sensor.cone ~rr_major:0.85 () in
     let trace =
       Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
         ~object_locs:wh.Rfid_sim.Warehouse.object_locs
         ~start:(Rfid_sim.Warehouse.reader_start wh)
         ~path:(Rfid_sim.Trace_gen.straight_pass ~speed:0.4 wh ~rounds:2)
         ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
         (Rng.create ~seed:23)
     in
     (wh, trace))

let make_engine config =
  let wh, trace = Lazy.force fixture in
  Engine.create ~world:wh.Rfid_sim.Warehouse.world
    ~params:Rfid_model.Params.default ~config
    ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:5 ()

(* ------------------------------------------------------------------ *)
(* Byte-identity of the incremental cache vs a from-scratch rebuild *)

let fstr = Framing.float_str

let render_range answers =
  List.map
    (fun (a : Query.answer) ->
      Printf.sprintf "%d %s %s %s %s" a.Query.a_obj (fstr a.Query.a_mass)
        (fstr a.Query.a_loc.Vec3.x) (fstr a.Query.a_loc.Vec3.y)
        (fstr a.Query.a_loc.Vec3.z))
    answers

let render_at = function
  | None -> "none"
  | Some (loc, sd_xy) ->
      Printf.sprintf "%s %s %s %s" (fstr loc.Vec3.x) (fstr loc.Vec3.y)
        (fstr loc.Vec3.z) (fstr sd_xy)

let render_near answers =
  List.map
    (fun (a : Query.near_answer) ->
      Printf.sprintf "%d %s %s %s %s" a.Query.n_obj (fstr a.Query.n_dist)
        (fstr a.Query.n_loc.Vec3.x) (fstr a.Query.n_loc.Vec3.y)
        (fstr a.Query.n_loc.Vec3.z))
    answers

(* Ordering matters: the incremental query goes first (it owns the
   change feed), then a fresh query rebuilt from scratch — a fresh
   [Query.t] starts fully invalid, so it never needs the feed the
   incremental one just consumed. *)
let compare_vs_rebuild ~what engine qi rng =
  let coord () = (float_of_int (Rng.int rng 1400) /. 10.) -. 20. in
  let x0 = coord () and y0 = coord () in
  let x1 = x0 +. float_of_int (Rng.int rng 400) /. 10. in
  let y1 = y0 +. float_of_int (Rng.int rng 400) /. 10. in
  let min_x, min_y, max_x, max_y =
    if Rng.int rng 10 = 0 then (-1e3, -1e3, 1e3, 1e3) else (x0, y0, x1, y1)
  in
  let min_mass = 0.001 +. (float_of_int (Rng.int rng 100) /. 200.) in
  let qf = Query.create () in
  let inc_range =
    render_range
      (Query.range qi ~engine ~min_x ~min_y ~max_x ~max_y ~min_mass)
  in
  Alcotest.(check (list string))
    (what ^ ": RANGE incremental = rebuild")
    (render_range
       (Query.range qf ~engine ~min_x ~min_y ~max_x ~max_y ~min_mass))
    inc_range;
  for obj = 0 to num_objects - 1 do
    let inc_at = render_at (Query.at qi ~engine obj) in
    Alcotest.(check string)
      (Printf.sprintf "%s: AT %d incremental = rebuild" what obj)
      (render_at (Query.at qf ~engine obj))
      inc_at
  done;
  let k = 1 + Rng.int rng 4 in
  let nx = coord () and ny = coord () in
  let inc_near = render_near (Query.near qi ~engine ~k ~x:nx ~y:ny) in
  Alcotest.(check (list string))
    (what ^ ": NEAR incremental = rebuild")
    (render_near (Query.near qf ~engine ~k ~x:nx ~y:ny))
    inc_near

let run_interleaving ~variant ~seed ~steps_budget =
  let wh, trace = Lazy.force fixture in
  let obs = Array.of_list (Trace.observations trace) in
  let config =
    Config.create ~variant ~num_reader_particles:30 ~num_object_particles:40
      ~report_delay:3 ~compress_after:5 ~degraded_widen_after:2 ()
  in
  let engine = ref (make_engine config) in
  let qi = Query.create () in
  let rng = Rng.create ~seed in
  let n = Int.min steps_budget (Array.length obs) in
  for i = 0 to n - 1 do
    let o = obs.(i) in
    (match Rng.int rng 100 with
    | r when r < 12 ->
        (* positioning outage: dead-reckon through this epoch *)
        ignore
          (Engine.step_degraded ~tags:o.T.o_read_tags !engine
             ~epoch:o.T.o_epoch)
    | r when r < 20 ->
        (* crash/restore boundary mid-stream, then the epoch; the
           restored engine raises dirty_all, so the cache kept across
           the restore must still match a rebuild. *)
        let snap = Engine.snapshot !engine in
        engine :=
          Engine.restore ~world:wh.Rfid_sim.Warehouse.world
            ~params:Rfid_model.Params.default ~config snap;
        Alcotest.(check bool)
          "restore raises dirty_all" true
          (Engine.changes_dirty_all !engine);
        ignore (Engine.step !engine o)
    | _ -> ignore (Engine.step !engine o));
    if Rng.int rng 100 < 35 then
      compare_vs_rebuild
        ~what:(Printf.sprintf "epoch %d" o.T.o_epoch)
        !engine qi rng
  done;
  ignore (Engine.flush !engine);
  compare_vs_rebuild ~what:"after flush" !engine qi rng;
  (* Guard against vacuous success: the pass must actually have put
     objects in scope, and the incremental cache must track them all. *)
  Alcotest.(check bool) "objects were discovered" true (Engine.num_known !engine > 0);
  Alcotest.(check int) "fit cache covers the known set"
    (Engine.num_known !engine) (Query.fit_count qi)

let prop_interleavings_indexed =
  Util.qcheck ~count:6 "interleavings: incremental = rebuild (indexed)"
    QCheck.small_int (fun seed ->
      run_interleaving ~variant:Config.Factorized_indexed ~seed
        ~steps_budget:60;
      true)

let test_interleaving_compressed () =
  run_interleaving ~variant:Config.Factorized_compressed ~seed:7
    ~steps_budget:60

(* ------------------------------------------------------------------ *)
(* Change-feed completeness: changed ==> flagged *)

let snapshot_estimates engine =
  let tbl = Hashtbl.create 32 in
  Engine.iter_estimates engine (fun id m c ->
      Hashtbl.replace tbl id (m, Array.map Array.copy c));
  tbl

(* [degraded_burst > 0] replaces the first [degraded_burst] epochs of
   every 7 with dead-reckoned steps, long enough bursts trip the
   widening (dirty_all) path. Returns whether dirty_all was ever
   observed. *)
let run_dirty_completeness ~label config ~degraded_burst =
  let engine = make_engine config in
  let _, trace = Lazy.force fixture in
  let obs = Array.of_list (Trace.observations trace) in
  let n = Int.min 80 (Array.length obs) in
  let saw_dirty_all = ref false in
  for i = 0 to n - 1 do
    let before = snapshot_estimates engine in
    let o = obs.(i) in
    if degraded_burst > 0 && i mod 7 < degraded_burst then
      ignore (Engine.step_degraded ~tags:o.T.o_read_tags engine ~epoch:o.T.o_epoch)
    else ignore (Engine.step engine o);
    let dirty_all = Engine.changes_dirty_all engine in
    if dirty_all then saw_dirty_all := true;
    let dirty = Hashtbl.create 16 in
    Engine.iter_dirty_changes engine (fun id -> Hashtbl.replace dirty id ());
    Engine.clear_changes engine;
    if not dirty_all then
      Engine.iter_estimates engine (fun id m c ->
          let changed =
            match Hashtbl.find_opt before id with
            | None -> true (* newly known *)
            | Some (m0, c0) -> not (m = m0 && c = c0)
          in
          if changed && not (Hashtbl.mem dirty id) then
            Alcotest.failf
              "%s: epoch %d: object %d's estimate moved but was not \
               flagged dirty"
              label o.T.o_epoch id)
  done;
  !saw_dirty_all

let test_dirty_eviction () =
  let evictions = Rfid_obs.Metrics.counter "health.evicted_objects" in
  let base = Rfid_obs.Metrics.counter_value evictions in
  ignore
    (run_dirty_completeness ~label:"eviction"
       (Config.create ~variant:Config.Factorized_indexed
          ~num_reader_particles:30 ~num_object_particles:40 ~report_delay:2 ())
       ~degraded_burst:0);
  Alcotest.(check bool) "objects were evicted" true
    (Rfid_obs.Metrics.counter_value evictions > base)

let test_dirty_adaptive_budget () =
  ignore
    (run_dirty_completeness ~label:"adaptive budget"
       (Config.create ~variant:Config.Factorized_indexed
          ~num_reader_particles:30 ~num_object_particles:80
          ~min_object_particles:10 ~resample_ess_ratio:0.9 ())
       ~degraded_burst:0)

let test_dirty_compression () =
  ignore
    (run_dirty_completeness ~label:"compression"
       (Config.create ~variant:Config.Factorized_compressed
          ~num_reader_particles:30 ~num_object_particles:40
          ~compress_after:3 ())
       ~degraded_burst:0)

let test_dirty_degraded_widening () =
  let saw_dirty_all =
    run_dirty_completeness ~label:"degraded widening"
      (Config.create ~variant:Config.Factorized_indexed
         ~num_reader_particles:30 ~num_object_particles:40
         ~degraded_widen_after:2 ())
      ~degraded_burst:3
  in
  Alcotest.(check bool)
    "widening bursts raised dirty_all at least once" true saw_dirty_all

let suite =
  ( "query_incremental",
    [
      prop_interleavings_indexed;
      Alcotest.test_case "interleavings (compressed)" `Quick
        test_interleaving_compressed;
      Alcotest.test_case "dirty-set complete under eviction" `Quick
        test_dirty_eviction;
      Alcotest.test_case "dirty-set complete under adaptive budgets" `Quick
        test_dirty_adaptive_budget;
      Alcotest.test_case "dirty-set complete under compression" `Quick
        test_dirty_compression;
      Alcotest.test_case "dirty-set complete under degraded widening" `Quick
        test_dirty_degraded_widening;
    ] )
