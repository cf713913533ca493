(* Adaptive inference effort: the ESS resample cap and the
   uncertainty-scaled per-object particle budgets. Three contracts are
   pinned here: any cap at or above the resample trigger is exactly
   invisible (bit-identical event streams), adaptive runs are
   schedule-independent (bit-identical across domain counts), and
   mixed-budget filter states survive the snapshot codec and continue
   bit-identically after a restore. *)
open Rfid_model
module E = Rfid_core.Engine
module FF = Rfid_core.Factored_filter
module Obs = Rfid_obs.Metrics

let num_objects = 12
let full_budget = 32
let min_budget = 8

let scenario =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects () in
     let trace =
       Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
         ~object_locs:wh.Rfid_sim.Warehouse.object_locs
         ~start:(Rfid_sim.Warehouse.reader_start wh)
         ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:2)
         ~config:(Rfid_sim.Trace_gen.default_config ())
         (Rfid_prob.Rng.create ~seed:29)
     in
     (wh, trace))

let config ?min_object_particles ?resample_ess_ratio () =
  Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
    ~num_reader_particles:25
    ~num_object_particles:full_budget ?min_object_particles ?resample_ess_ratio
    ~report_delay:5 ()

let adaptive_config () =
  (* 0.25 < the 0.5 trigger so the ESS cap actually vetoes — both
     adaptive mechanisms are live in these runs. *)
  config ~min_object_particles:min_budget ~resample_ess_ratio:0.25 ()

let make_engine config =
  let wh, trace = Lazy.force scenario in
  E.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default ~config
    ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:23 ()

let run_events config =
  let _, trace = Lazy.force scenario in
  let engine = make_engine config in
  E.run engine (Trace.observations trace) @ E.flush engine

let check_streams_equal what a b =
  Alcotest.(check int) (what ^ ": event count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Rfid_core.Event.t) y ->
      if x <> y then
        Alcotest.failf "%s: streams diverged:@ %a@ vs@ %a" what Rfid_core.Event.pp x
          Rfid_core.Event.pp y)
    a b

(* The basic joint filter reads the same ESS cap on its one resample. *)
let run_joint_events config =
  let _, trace = Lazy.force scenario in
  (Rfid_eval.Runner.run_joint ~params:Params.default ~config ~seed:23 trace)
    .Rfid_eval.Runner.events

(* Any ESS cap at or above the classic 0.5 trigger is vacuous: the cap
   only vetoes a resample whose ESS is simultaneously below 0.5*n and
   at or above ratio*n, which is unsatisfiable for ratio >= 0.5. The
   event stream must therefore be bit-identical to the default's, for
   the factorized filter and the basic joint filter alike. *)
let test_vacuous_cap_bit_identical () =
  List.iter
    (fun (what, run) ->
      let reference = run (config ()) in
      List.iter
        (fun ratio ->
          let capped = run (config ~resample_ess_ratio:ratio ()) in
          check_streams_equal (Printf.sprintf "%s ess cap %.2f" what ratio) reference
            capped)
        [ 1.0; 0.75; 0.5 ])
    [ ("joint", run_joint_events); ("factorized+index", run_events) ]

(* Below the trigger the cap must actually bite: vetoed resamples are
   counted, and with a near-zero ratio nearly every resample decision
   becomes a skip. *)
let test_cap_below_trigger_skips () =
  let skipped = Obs.counter "filter.resamples_skipped" in
  let before = Obs.counter_value skipped in
  ignore (run_events (config ~resample_ess_ratio:0.05 ()));
  let delta = Obs.counter_value skipped - before in
  Alcotest.(check bool)
    (Printf.sprintf "ESS cap 0.05 vetoed some resamples (got %d)" delta)
    true (delta > 0)

let active_budgets (snapshot : E.snapshot) =
  List.filter_map
    (fun so ->
      match so.FF.so_belief with
      | FF.Snap_active parts -> Some (Array.length parts)
      | FF.Snap_compressed _ -> None)
    snapshot.E.es_filter.FF.fs_objects

(* Drive an adaptive engine to midstream and hand back the engine, the
   remaining observations, and its snapshot — which must already hold
   genuinely mixed budgets, or the restore test below proves nothing. *)
let adaptive_engine_at_midstream () =
  let _, trace = Lazy.force scenario in
  let engine = make_engine (adaptive_config ()) in
  let stream = Trace.observations trace in
  let n = List.length stream in
  let first, rest =
    List.partition (fun (o : Types.observation) -> o.Types.o_epoch < n / 2) stream
  in
  List.iter (fun o -> ignore (E.step engine o)) first;
  (engine, rest, E.snapshot engine)

let test_mixed_budgets_on_ladder () =
  let _, _, snapshot = adaptive_engine_at_midstream () in
  let budgets = active_budgets snapshot in
  Alcotest.(check bool) "some objects are active" true (budgets <> []);
  let rungs = [ min_budget; 2 * min_budget; full_budget ] in
  List.iter
    (fun b ->
      if not (List.mem b rungs) then
        Alcotest.failf "budget %d is not a ladder rung" b)
    budgets;
  Alcotest.(check bool) "adaptation actually shrank some object" true
    (List.exists (fun b -> b < full_budget) budgets)

(* Mixed budgets through the codec: canonical round-trip, then a
   restored engine must continue bit-identically — budget state is the
   store length, which the per-object length prefix already persists. *)
let test_adaptive_restore_continue () =
  let engine, rest, snapshot = adaptive_engine_at_midstream () in
  let data = Rfid_robust.Codec.encode snapshot in
  let decoded =
    match Rfid_robust.Codec.decode data with
    | Ok s -> s
    | Error msg -> Alcotest.failf "adaptive snapshot decode failed: %s" msg
  in
  Alcotest.(check bool) "re-encoded bytes identical" true
    (String.equal data (Rfid_robust.Codec.encode decoded));
  Alcotest.(check bool) "budgets survive the round-trip" true
    (active_budgets decoded = active_budgets snapshot);
  let wh, _ = Lazy.force scenario in
  let restored =
    E.restore ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
      ~config:(adaptive_config ()) decoded
  in
  let continue engine = List.concat_map (E.step engine) rest @ E.flush engine in
  check_streams_equal "adaptive restore-continue" (continue engine)
    (continue restored)

let test_config_validation () =
  Util.check_raises_invalid "min budget 0" (fun () ->
      ignore (config ~min_object_particles:0 ()));
  Util.check_raises_invalid "min budget above K" (fun () ->
      ignore (config ~min_object_particles:(full_budget + 1) ()));
  Util.check_raises_invalid "ess ratio 0" (fun () ->
      ignore (config ~resample_ess_ratio:0. ()));
  Util.check_raises_invalid "ess ratio above 1" (fun () ->
      ignore (config ~resample_ess_ratio:1.5 ()))

let suite =
  ( "adaptive",
    [
      Alcotest.test_case "vacuous ESS cap is bit-identical" `Quick
        test_vacuous_cap_bit_identical;
      Alcotest.test_case "ESS cap below trigger vetoes" `Quick
        test_cap_below_trigger_skips;
      Alcotest.test_case "mixed budgets stay on the ladder" `Quick
        test_mixed_budgets_on_ladder;
      Alcotest.test_case "adaptive restore continues bit-identically" `Quick
        test_adaptive_restore_continue;
      Alcotest.test_case "config validation" `Quick test_config_validation;
    ] )
