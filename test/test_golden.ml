(* Golden-trace determinism: for a fixed scenario covering object
   creation, re-detection, decompression, per-object resampling, dead
   reckoning (with posterior widening) and end-of-stream flush, the
   engine's event stream is compared bit-for-bit — floats printed in
   hex — against fixtures captured before the SoA hot-path refactor.
   The basic joint filter runs the same scenario through
   [Runner.run_joint], which steps every observation (the joint filter
   does not dead-reckon). Any change to RNG draw order or
   floating-point evaluation order in either filter shows up here as a
   one-line diff.

   Regenerate (only when an intentional behaviour change lands):
     RFID_GOLDEN_PROMOTE=$PWD/test/golden dune exec test/test_main.exe -- test golden
   and commit the updated test/golden/*.txt. *)
open Rfid_model

(* [adaptive = true] turns on the effort knobs (budget floor below K
   plus an ESS resample cap), pinning the adaptive machinery's RNG draw
   order and budget walk the same way the fixed-budget fixtures pin the
   hot path. *)
let engine_variants =
  [
    (false, Rfid_core.Config.Factorized, "factorized");
    (false, Rfid_core.Config.Factorized_indexed, "factorized_indexed");
    (false, Rfid_core.Config.Factorized_compressed, "factorized_compressed");
    (true, Rfid_core.Config.Factorized_indexed, "factorized_indexed_adaptive");
  ]

let scenario =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:12 () in
     let sensor = Rfid_sim.Truth_sensor.cone ~rr_major:0.85 () in
     let trace =
       Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
         ~object_locs:wh.Rfid_sim.Warehouse.object_locs
         ~start:(Rfid_sim.Warehouse.reader_start wh)
         ~path:(Rfid_sim.Trace_gen.straight_pass ~speed:0.3 wh ~rounds:2)
         ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
         (Rfid_prob.Rng.create ~seed:17)
     in
     (wh, trace))

(* Three consecutive mid-stream epochs are dead-reckoned; with
   [degraded_widen_after = 2] the last two also widen object beliefs,
   so the degraded code path is part of the golden output. *)
let degraded_epochs_of trace =
  let obs = Trace.observations trace in
  let n = List.length obs in
  List.filteri (fun i _ -> (i >= 6 && i < 9) || (i >= n / 2 && i < (n / 2) + 3)) obs
  |> List.map (fun (o : Types.observation) -> o.Types.o_epoch)

let config ~adaptive ~variant =
  Rfid_core.Config.create ~variant ~num_reader_particles:40
    ~num_object_particles:60
    ?min_object_particles:(if adaptive then Some 15 else None)
    ?resample_ess_ratio:(if adaptive then Some 0.25 else None)
    ~compress_after:10 ~degraded_widen_after:2 ~report_delay:5 ()

let run_engine ~adaptive ~variant =
  let wh, trace = Lazy.force scenario in
  let config = config ~adaptive ~variant in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:Params.default ~config
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:5 ()
  in
  let degraded = degraded_epochs_of trace in
  let stepped =
    List.concat_map
      (fun (o : Types.observation) ->
        if List.mem o.Types.o_epoch degraded then
          Rfid_core.Engine.step_degraded engine ~epoch:o.Types.o_epoch
        else Rfid_core.Engine.step engine o)
      (Trace.observations trace)
  in
  stepped @ Rfid_core.Engine.flush engine

let run_joint () =
  let _, trace = Lazy.force scenario in
  let config = config ~adaptive:false ~variant:Rfid_core.Config.Factorized in
  (Rfid_eval.Runner.run_joint ~params:Params.default ~config ~seed:5 trace)
    .Rfid_eval.Runner.events

let dump_events events =
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Rfid_core.Event.t) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %h %h %h %b" e.Rfid_core.Event.ev_epoch
           e.Rfid_core.Event.ev_obj e.Rfid_core.Event.ev_loc.Rfid_geom.Vec3.x
           e.Rfid_core.Event.ev_loc.Rfid_geom.Vec3.y
           e.Rfid_core.Event.ev_loc.Rfid_geom.Vec3.z e.Rfid_core.Event.ev_degraded);
      (match e.Rfid_core.Event.ev_cov with
      | None -> Buffer.add_string b " -"
      | Some cov ->
          Array.iter
            (fun row ->
              Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %h" v)) row)
            cov);
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Fail on the first differing line, not with a full-dump diff. *)
let check_dump what expected got =
  if expected <> got then begin
    let el = String.split_on_char '\n' expected
    and gl = String.split_on_char '\n' got in
    let n = Int.min (List.length el) (List.length gl) in
    let rec first_diff i =
      if i >= n then i
      else if List.nth el i <> List.nth gl i then i
      else first_diff (i + 1)
    in
    let i = first_diff 0 in
    Alcotest.failf "%s: first difference at event %d:@ golden: %s@ got:    %s" what i
      (try List.nth el i with _ -> "<missing>")
      (try List.nth gl i with _ -> "<missing>")
  end

let test_fixture (name, run) () =
  let dump = dump_events (run ()) in
  Alcotest.(check bool) (name ^ ": events exist") true (String.length dump > 0);
  (match Sys.getenv_opt "RFID_GOLDEN_PROMOTE" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir (name ^ ".txt")) in
      output_string oc dump;
      close_out oc;
      Printf.printf "promoted %s/%s.txt\n%!" dir name
  | None ->
      check_dump
        (name ^ ": run vs pre-refactor golden")
        (read_file (Filename.concat "golden" (name ^ ".txt")))
        dump)

let fixtures =
  ("unfactorized", run_joint)
  :: List.map
       (fun (adaptive, variant, name) -> (name, fun () -> run_engine ~adaptive ~variant))
       engine_variants

let suite =
  ( "golden",
    List.map
      (fun (name, run) ->
        Alcotest.test_case (name ^ " event stream") `Quick (test_fixture (name, run)))
      fixtures )
