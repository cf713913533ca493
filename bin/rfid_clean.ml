(* rfid_clean: command-line front end.

   Subcommands:
     simulate   generate a warehouse scan and dump the raw streams
     infer      simulate, clean with the inference engine, print events
     replay     clean a recorded observation stream
     calibrate  EM self-calibration on a simulated training trace
     lab        the lab-deployment comparison (ours vs SMURF vs uniform)
     serve      serve the engine over TCP (PROTOCOL.md)

   infer and serve share their durability flags (Rfid_robust.Session
   owns what they mean); infer, replay and serve share the engine
   flags and build their pipeline through Rfid_serve.Bootstrap.

   The full table/figure reproduction harness is a separate executable:
   dune exec bench/main.exe. *)

open Cmdliner
open Rfid_model
module Session = Rfid_robust.Session
module Bootstrap = Rfid_serve.Bootstrap

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* Flags with a bounded range are checked by cmdliner itself, so a bad
   value is a usage error (exit 124), never an exception from deep
   inside the simulator or the engine. *)
let int_in_range lo hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ when hi = max_int ->
        Error (`Msg (Printf.sprintf "invalid value %S, expected an integer >= %d" s lo))
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid value %S, expected an integer in [%d, %d]" s lo hi))
  in
  Arg.conv (parse, Format.pp_print_int)

let int_at_least lo = int_in_range lo max_int

(* A float accepted when [ok] holds; [range] names the interval in the
   error message. *)
let float_in ~range ok =
  let parse s =
    match float_of_string_opt s with
    | Some r when ok r -> Ok r
    | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected a number in %s" s range))
  in
  Arg.conv (parse, Format.pp_print_float)

let probability = float_in ~range:"[0, 1]" (fun p -> p >= 0. && p <= 1.)

let objects_arg =
  Arg.(
    value
    & opt (int_at_least 1) 16
    & info [ "objects"; "n" ] ~docv:"N" ~doc:"Number of tagged objects.")

let rounds_arg =
  Arg.(
    value
    & opt (int_at_least 1) 1
    & info [ "rounds" ] ~docv:"N" ~doc:"Scan rounds over the warehouse.")

let read_rate_arg =
  Arg.(
    value
    & opt (float_in ~range:"(0, 1]" (fun r -> r > 0. && r <= 1.)) 1.0
    & info [ "read-rate" ] ~docv:"R"
        ~doc:"Read rate in the sensor's major detection range (0..1].")

let particles_arg =
  Arg.(
    value
    & opt (int_at_least 1) 200
    & info [ "particles"; "k" ] ~docv:"K" ~doc:"Particles per object.")

let min_particles_arg =
  (* 0 resolves to the --particles value, which disables adaptation
     entirely. *)
  Arg.(
    value
    & opt int 0
    & info [ "min-particles" ] ~docv:"K"
        ~doc:
          "Floor of the adaptive per-object particle budget (0 = equal to \
           $(b,--particles), disabling adaptation). When strictly below \
           $(b,--particles), each object's budget walks a doubling ladder \
           between the two driven by its posterior spread: tight posteriors \
           drop to the floor, uncertain ones keep the full budget.")

let resample_ess_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "resample-ess" ] ~docv:"R"
        ~doc:
          "Additional ESS cap on every resample: the gather runs only when \
           additionally ESS < R * n. The default 1.0 is vacuous and preserves \
           bit-identical output; lowering it below the 0.5 trigger skips \
           resamples whose weight degeneracy is still mild, trading diversity \
           refresh for throughput.")

let domains_arg =
  (* Inference runs on one domain (DESIGN.md section 7). The flag
     stays so existing command lines keep working; any value but 1 is a
     usage error. *)
  let one =
    let parse s =
      match int_of_string_opt s with
      | Some 1 -> Ok ()
      | _ ->
          Error
            (`Msg
               (Printf.sprintf
                  "invalid domain count %S: inference runs on one domain, so only 1 is \
                   accepted"
                  s))
    in
    Arg.conv (parse, fun ppf () -> Format.pp_print_int ppf 1)
  in
  Arg.(
    value
    & opt one ()
    & info [ "domains" ] ~docv:"N"
        ~doc:"Domains for inference. Inference runs on one domain, so only 1 is accepted.")

let variant_arg =
  let variants =
    [
      ("factorized", Rfid_core.Config.Factorized);
      ("indexed", Rfid_core.Config.Factorized_indexed);
      ("compressed", Rfid_core.Config.Factorized_compressed);
    ]
  in
  Arg.(
    value
    & opt (enum variants) Rfid_core.Config.Factorized_indexed
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:
          "Engine variant: $(b,factorized), $(b,indexed) (factorized + \
           spatial index), or $(b,compressed) (+ belief compression).")

(* The engine flags shared by infer, replay and serve, validated by
   the one Config.create call: a value it rejects is a usage error. *)
type engine_flags = { objects : int; seed : int; config : Rfid_core.Config.t }

let engine_term =
  let make objects seed variant particles min_particles resample_ess () =
    match
      Rfid_core.Config.create ~variant ~num_object_particles:particles
        ?min_object_particles:(if min_particles = 0 then None else Some min_particles)
        ~resample_ess_ratio:resample_ess ()
    with
    | config -> `Ok { objects; seed; config }
    | exception Invalid_argument msg -> `Error (true, msg)
  in
  Term.(
    ret
      (const make $ objects_arg $ seed_arg $ variant_arg $ particles_arg
     $ min_particles_arg $ resample_ess_arg $ domains_arg))

(* The durability flags shared by infer and serve; Session owns what
   they mean, Core runs the checkpoint cadence. *)
type durability = { session : Session.config; checkpoint_every : int }

let durability_term =
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Write engine checkpoints to PATH — a single file, or with \
             $(b,--checkpoint-keep) > 1 a rotation directory of \
             $(i,ckpt-<epoch>.bin) files.")
  in
  let checkpoint_keep =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "checkpoint-keep" ] ~docv:"N"
          ~doc:
            "Keep the N newest checkpoints (rotating in a directory); recovery \
             falls back down the chain past a corrupted file. 1 (default) = a \
             single checkpoint file.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:
            "Checkpoint every K admitted epochs (0 = only at exit, or on \
             DRAIN/shutdown when serving).")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE"
          ~doc:
            "Append each admitted epoch to a write-ahead log at FILE, closing \
             the data-loss window between checkpoints; see $(b,--recover).")
  in
  let wal_fsync_every =
    Arg.(
      value
      & opt (int_at_least 1) 8
      & info [ "wal-fsync-every" ] ~docv:"K"
          ~doc:"Force the write-ahead log to disk every K records (min 1).")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Also append cleaned events to FILE durably, in emission order \
             (trimmed and regenerated consistently by $(b,--recover)).")
  in
  let recover =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Recover a crashed run: load the newest valid checkpoint from \
             $(b,--checkpoint), trim the $(b,--wal) and $(b,--events) files to \
             their intact prefixes, replay the logged epochs past the \
             checkpoint, then continue — producing the event stream the \
             uninterrupted run would have, bit-identically. A recovered server \
             also reseeds its EVENTS ring from $(b,--events); clients resume \
             PUTting where they left off.")
  in
  let make checkpoint checkpoint_keep checkpoint_every wal wal_fsync_every events
      recover =
    if recover && checkpoint = None then
      `Error (true, "--recover needs --checkpoint to know where the checkpoints live")
    else
      `Ok
        {
          session =
            { Session.checkpoint; checkpoint_keep; wal; wal_fsync_every; events; recover };
          checkpoint_every;
        }
  in
  Term.(
    ret
      (const make $ checkpoint $ checkpoint_keep $ checkpoint_every $ wal
     $ wal_fsync_every $ events $ recover))

(* The Core hooks of infer and serve: the session logs events and the
   flush marker and publishes checkpoints, beside the caller's own. *)
let session_hooks ~on_events ~on_admitted session =
  {
    Rfid_serve.Core.on_events =
      (fun evs ->
        Session.log_events session evs;
        on_events evs);
    on_flush_mark = (fun () -> Session.flush_mark session);
    on_admitted;
    on_checkpoint = (fun _ -> Session.checkpoint session);
  }

let build_scenario ~objects ~rounds ~read_rate ~seed =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:objects () in
  let sensor = Rfid_sim.Truth_sensor.cone ~rr_major:read_rate () in
  Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
    ~object_locs:wh.Rfid_sim.Warehouse.object_locs
    ~start:(Rfid_sim.Warehouse.reader_start wh)
    ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds)
    ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
    (Rfid_prob.Rng.create ~seed)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate objects rounds read_rate seed out =
  let trace = build_scenario ~objects ~rounds ~read_rate ~seed in
  let observations = Trace.observations trace in
  match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Trace_io.write_observations oc observations);
      Printf.printf "wrote %d observations (%d objects) to %s\n"
        (List.length observations) trace.Trace.num_objects path
  | None -> Trace_io.write_observations stdout observations

let simulate_cmd =
  let doc =
    "Simulate a warehouse scan; dump the raw synchronized streams as CSV \
     (replayable through the library's Trace_io module)."
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the stream to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(const simulate $ objects_arg $ rounds_arg $ read_rate_arg $ seed_arg $ out)

(* ------------------------------------------------------------------ *)
(* infer                                                               *)

type fault_flags = {
  ff_drop : float;
  ff_nan : float;
  ff_dup : float;
  ff_spurious : float;
  ff_outage_start : int;
  ff_outage_len : int;
  ff_seed : int;
}

let faults_of_flags ff =
  Rfid_sim.Faults.make ~drop_prob:ff.ff_drop ~nan_fix_prob:ff.ff_nan
    ~duplicate_prob:ff.ff_dup ~spurious_tag_prob:ff.ff_spurious
    ?outage:
      (if ff.ff_outage_len > 0 then Some (ff.ff_outage_start, ff.ff_outage_len)
       else None)
    ()

let fault_flags_term =
  let drop =
    Arg.(
      value & opt probability 0.
      & info [ "fault-drop" ] ~docv:"P" ~doc:"Drop each observation with probability P.")
  in
  let nan =
    Arg.(
      value & opt probability 0.
      & info [ "fault-nan" ] ~docv:"P"
          ~doc:"Replace each location fix with NaN with probability P.")
  in
  let dup =
    Arg.(
      value & opt probability 0.
      & info [ "fault-dup" ] ~docv:"P" ~doc:"Duplicate each observation with probability P.")
  in
  let spurious =
    Arg.(
      value & opt probability 0.
      & info [ "fault-spurious" ] ~docv:"P"
          ~doc:"Prepend a spurious out-of-universe tag with probability P.")
  in
  let outage_start =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "fault-outage-start" ] ~docv:"E" ~doc:"First epoch of a positioning outage.")
  in
  let outage_len =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "fault-outage-len" ] ~docv:"N"
          ~doc:"Outage length in epochs (0 disables the outage).")
  in
  let fseed =
    Arg.(
      value & opt int 7 & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed for fault injection.")
  in
  let mk drop nan dup spurious outage_start outage_len fseed =
    {
      ff_drop = drop;
      ff_nan = nan;
      ff_dup = dup;
      ff_spurious = spurious;
      ff_outage_start = outage_start;
      ff_outage_len = outage_len;
      ff_seed = fseed;
    }
  in
  Term.(const mk $ drop $ nan $ dup $ spurious $ outage_start $ outage_len $ fseed)

let on_ooo_arg =
  Arg.(
    value
    & opt (enum [ ("halt", false); ("drop", true) ]) false
    & info [ "on-out-of-order" ] ~docv:"POLICY"
        ~doc:"What to do with an out-of-order epoch: $(b,halt) (default) or $(b,drop).")

(* Write the collected observability snapshots as one JSON document;
   snapshots are ordered oldest first. *)
let write_metrics_file ~path snapshots =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"schema\": \"obs_snapshots/v1\",\n  \"snapshots\": [\n";
      output_string oc (String.concat ",\n" (List.map (fun s -> "    " ^ s) snapshots));
      output_string oc "\n  ]\n}\n")

let print_stage_summary () =
  let module M = Rfid_obs.Metrics in
  let stages =
    List.filter
      (fun (name, h) ->
        M.histogram_count h > 0
        && String.length name > 6
        && String.sub name 0 6 = "stage.")
      (M.histograms_list M.global)
  in
  if stages <> [] then begin
    Format.printf "stages (wall-clock per admitted epoch):@.";
    List.iter
      (fun (name, h) ->
        Format.printf "  %-22s count=%-6d p50=%.1fus p95=%.1fus p99=%.1fus@." name
          (M.histogram_count h)
          (1e6 *. M.quantile h 0.5)
          (1e6 *. M.quantile h 0.95)
          (1e6 *. M.quantile h 0.99))
      stages
  end

let infer { objects; seed; config } rounds read_rate ff drop_out_of_order
    durability resume stop_after metrics metrics_every =
  (* Scope counters to this run: the registry is process-global and the
     snapshots below must start from zero for their deltas to mean
     anything. *)
  Rfid_obs.Metrics.reset Rfid_obs.Metrics.global;
  let trace = build_scenario ~objects ~rounds ~read_rate ~seed in
  let boot = Bootstrap.of_config ~read_rate ~objects ~seed config in
  let faults = faults_of_flags ff in
  let observations = Trace.observations trace in
  let observations =
    if Rfid_sim.Faults.is_none faults then observations
    else begin
      Format.printf "# injecting faults: %a@." Rfid_sim.Faults.pp faults;
      Rfid_sim.Faults.apply faults ~seed:ff.ff_seed observations
    end
  in
  let guard = Bootstrap.fresh_guard ~drop_out_of_order boot in
  let session = Bootstrap.start_session ?resume boot ~guard durability.session in
  let engine = Session.engine session in
  let restored = durability.session.recover || resume <> None in
  let observations =
    (* A restored engine (and its WAL replay) has already consumed
       everything up to its current epoch; feed it only the remainder. *)
    if not restored then observations
    else
      let e0 = Rfid_core.Engine.epoch engine in
      List.filter (fun (o : Types.observation) -> o.Types.o_epoch > e0) observations
  in
  let snapshots = ref [] in
  let take_snapshot () =
    snapshots :=
      Rfid_obs.Metrics.dump_json
        ~extra:[ ("epoch", string_of_int (Rfid_core.Engine.epoch engine)) ] ()
      :: !snapshots
  in
  let on_admitted n =
    if metrics <> None && metrics_every > 0 && n mod metrics_every = 0 then
      take_snapshot ()
  in
  let events = ref [] in
  let on_events evs = events := List.rev_append evs !events in
  let core =
    Rfid_serve.Core.create ~guard ~engine ~num_objects:objects
      ~checkpoint_every:durability.checkpoint_every
      ~hooks:(session_hooks ~on_events ~on_admitted session)
      ()
  in
  let t0 = Rfid_obs.Metrics.now () in
  (* Step until the stream ends (false), or [--stop-after] or a guard
     halt stops it early (true). *)
  let at_stop () =
    match stop_after with Some e -> Rfid_core.Engine.epoch engine >= e | None -> false
  in
  let rec run = function
    | [] -> false
    | _ when at_stop () -> true
    | obs :: rest -> (
        match Rfid_serve.Core.ingest core obs with
        | Ok () -> run rest
        | Error (_, msg) ->
            prerr_endline msg;
            true)
  in
  let stopped = run observations in
  if stopped then Session.checkpoint session else Rfid_serve.Core.drain core;
  let events = Session.replayed session @ List.rev !events in
  Session.close session;
  List.iter (fun ev -> Format.printf "%a@." Rfid_core.Event.pp ev) events;
  let stats = Rfid_core.Engine.stats engine in
  Format.printf "@.ingest: %a@." Rfid_robust.Ingest.pp_counters guard;
  Format.printf "engine: %a@." Rfid_core.Engine.pp_stats stats;
  (match metrics with
  | None -> ()
  | Some path ->
      take_snapshot ();
      let snapshots = List.rev !snapshots in
      write_metrics_file ~path snapshots;
      print_stage_summary ();
      Format.printf "metrics: wrote %d snapshot(s) to %s@." (List.length snapshots) path);
  if stopped then
    Format.printf "stopped early at epoch %d%s@."
      (Rfid_core.Engine.epoch engine)
      (match durability.session.checkpoint with
      | Some path -> Printf.sprintf " (checkpoint saved to %s)" path
      | None -> "")
  else if (not restored) && Rfid_sim.Faults.is_none faults then begin
    let error = Rfid_eval.Metrics.inference_error events trace in
    Format.printf "%a | %.1fs total@." Rfid_eval.Metrics.pp_error error
      (Rfid_obs.Metrics.now () -. t0)
  end

let infer_cmd =
  let doc =
    "Simulate, clean the streams with the inference engine, print events. \
     Supports fault injection ($(b,--fault-)* flags), checkpointing \
     ($(b,--checkpoint), $(b,--checkpoint-every)) and resuming \
     ($(b,--resume)) — a resumed run reproduces the uninterrupted event \
     stream bit-identically."
  in
  let resume =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"PATH"
          ~doc:
            "Resume from a checkpoint: a file, or a rotation directory (the \
             newest checkpoint that still verifies wins).")
  in
  let stop_after =
    Arg.(
      value
      & opt (some (int_at_least 0)) None
      & info [ "stop-after" ] ~docv:"E"
          ~doc:"Stop (and checkpoint) once the engine reaches epoch E.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write observability snapshots (counters, gauges, per-stage timing \
             histograms) to FILE as JSON and print a per-stage timing summary.")
  in
  let metrics_every =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "metrics-every" ] ~docv:"K"
          ~doc:
            "With $(b,--metrics), also snapshot every K admitted epochs \
             (0 = only the final snapshot).")
  in
  Cmd.v
    (Cmd.info "infer" ~doc)
    Term.(
      const infer $ engine_term $ rounds_arg $ read_rate_arg $ fault_flags_term
      $ on_ooo_arg $ durability_term $ resume $ stop_after $ metrics $ metrics_every)

(* ------------------------------------------------------------------ *)
(* calibrate                                                           *)

let calibrate shelf_tags em_iters seed =
  let wh = Rfid_sim.Warehouse.layout ~objects_per_shelf:1 ~num_objects:20 () in
  let keep =
    if shelf_tags = 0 then []
    else List.init shelf_tags (fun i -> i * 20 / shelf_tags)
  in
  let world = World.with_shelf_tags wh.Rfid_sim.Warehouse.world ~keep in
  let truth = Rfid_sim.Truth_sensor.cone () in
  let trace =
    Rfid_sim.Trace_gen.run ~world ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ~sensor:truth ())
      (Rfid_prob.Rng.create ~seed)
  in
  let learned =
    Rfid_learn.Calibration.calibrate ~world ~init:Params.default ~em_iters
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader (Trace.observations trace)
  in
  Format.printf "learned parameters (EM, %d iterations, %d known tags):@.%a@."
    em_iters shelf_tags Params.pp learned;
  Printf.printf "sensor mean-absolute-error vs true region: %.4f\n"
    (Rfid_learn.Supervised.mean_abs_error learned.Params.sensor
       ~read_prob:truth.Rfid_sim.Truth_sensor.read_prob)

let calibrate_cmd =
  let doc = "EM self-calibration on a simulated 20-tag training trace." in
  let shelf_tags =
    Arg.(
      value
      & opt (int_in_range 0 20) 4
      & info [ "shelf-tags" ] ~docv:"N" ~doc:"Tags with known locations (0-20).")
  in
  let em_iters =
    Arg.(
      value
      & opt (int_at_least 0) 4
      & info [ "em-iters" ] ~docv:"N" ~doc:"EM iterations.")
  in
  Cmd.v (Cmd.info "calibrate" ~doc) Term.(const calibrate $ shelf_tags $ em_iters $ seed_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)

let replay file { objects; seed; config } lenient =
  let ic = open_in file in
  let observations =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        if lenient then begin
          let observations, errors = Trace_io.read_observations_lenient ic in
          List.iter
            (fun (line, msg) -> Printf.eprintf "%s:%d: skipped: %s\n" file line msg)
            errors;
          observations
        end
        else Trace_io.read_observations ic)
  in
  Printf.printf "# replaying %d observations from %s\n%!" (List.length observations) file;
  let boot = Bootstrap.of_config ~objects ~seed config in
  (* The guard alone decides what a duplicate or reordered epoch means;
     a lenient replay should survive whatever the file contains, so it
     drops out-of-order epochs instead of halting on them. *)
  let guard = Bootstrap.fresh_guard ~drop_out_of_order:lenient boot in
  let result =
    Rfid_robust.Ingest.run_engine guard (Bootstrap.fresh_engine boot) observations
  in
  Format.eprintf "# ingest: %a@." Rfid_robust.Ingest.pp_counters guard;
  match result with
  | Error (_, msg) ->
      prerr_endline ("rfid_clean: " ^ msg);
      exit 1
  | Ok events ->
      Trace_io.write_events stdout
        (List.map
           (fun (ev : Rfid_core.Event.t) ->
             (ev.Rfid_core.Event.ev_epoch, ev.Rfid_core.Event.ev_obj, ev.Rfid_core.Event.ev_loc))
           events)

let replay_cmd =
  let doc =
    "Replay a recorded observation stream (see $(b,simulate --out)) through the \
     engine; print cleaned events as CSV."
  in
  let file =
    Arg.(
      required
      & opt (some file) None
      & info [ "in"; "i" ] ~docv:"FILE" ~doc:"Observation stream to replay.")
  in
  let lenient =
    Arg.(
      value & flag
      & info [ "lenient" ]
          ~doc:
            "Skip malformed lines (reported to stderr with line numbers) and \
             drop out-of-order epochs instead of halting on the first one.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(const replay $ file $ engine_term $ lenient)

(* ------------------------------------------------------------------ *)
(* lab                                                                 *)

let lab timeout_ms large seed =
  let shelf_size = if large then Rfid_sim.Lab.Large else Rfid_sim.Lab.Small in
  let rig = Rfid_sim.Lab.deployment ~timeout_ms ~shelf_size () in
  let heading_model = Rfid_core.Config.Known_heading Rfid_sim.Lab.heading in
  let train = Rfid_sim.Lab.scan rig ~seed:(seed + 1) in
  let learned =
    Rfid_learn.Calibration.calibrate ~heading_model ~world:rig.Rfid_sim.Lab.world
      ~init:Params.default ~em_iters:3
      ~init_reader:train.Trace.steps.(0).Trace.true_reader (Trace.observations train)
  in
  let trace = Rfid_sim.Lab.scan rig ~seed in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
      ~num_reader_particles:150 ~num_object_particles:300 ~heading_model ()
  in
  let ours = Rfid_eval.Runner.run_engine ~params:learned ~config ~seed trace in
  let range = Float.min 8. (Sensor_model.detection_range learned.Params.sensor) in
  let obs = Trace.observations trace in
  let smurf =
    Rfid_baselines.Smurf.run ~world:rig.Rfid_sim.Lab.world ~read_range:range
      ~heading_of:Rfid_sim.Lab.heading ~seed obs
  in
  let uniform =
    Rfid_baselines.Uniform.run ~world:rig.Rfid_sim.Lab.world ~read_range:range
      ~heading_of:Rfid_sim.Lab.heading ~seed obs
  in
  let line label events =
    let e = Rfid_eval.Metrics.inference_error events trace in
    Printf.printf "%-18s X=%.2f Y=%.2f XY=%.2f ft\n" label e.Rfid_eval.Metrics.mean_x
      e.Rfid_eval.Metrics.mean_y e.Rfid_eval.Metrics.mean_xy
  in
  Printf.printf "lab deployment: timeout %d ms, %s shelf\n" timeout_ms
    (if large then "large" else "small");
  line "our system" ours.Rfid_eval.Runner.events;
  line "SMURF (improved)" smurf;
  line "uniform" uniform

let lab_cmd =
  let doc = "Run the lab-deployment comparison (Fig. 6(b) of the paper)." in
  let timeout =
    Arg.(
      value
      & opt (enum [ ("250", 250); ("500", 500); ("750", 750) ]) 500
      & info [ "timeout" ] ~docv:"MS" ~doc:"Reader timeout: 250, 500 or 750 ms.")
  in
  let large =
    Arg.(value & flag & info [ "large-shelf" ] ~doc:"Use the 2.6 ft imagined shelf.")
  in
  Cmd.v (Cmd.info "lab" ~doc) Term.(const lab $ timeout $ large $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve host port { objects; seed; config } admit_cap events_keep durability
    metrics_push metrics_push_every =
  Rfid_obs.Metrics.reset Rfid_obs.Metrics.global;
  let boot = Bootstrap.of_config ~objects ~seed config in
  let guard = Bootstrap.fresh_guard boot in
  let session = Bootstrap.start_session boot ~guard durability.session in
  let core =
    Rfid_serve.Core.create ~guard ~engine:(Session.engine session)
      ~num_objects:objects ~admit_cap ~events_keep
      ~checkpoint_every:durability.checkpoint_every
      ~hooks:(session_hooks ~on_events:ignore ~on_admitted:ignore session)
      ()
  in
  (* A recovered server answers EVENTS with the history the
     uninterrupted one would have (a fresh run's log is empty). *)
  List.iter (Rfid_serve.Core.preload_event core) (Session.logged_events session);
  let pusher =
    match metrics_push with
    | None -> None
    | Some (mhost, mport) -> (
        match Rfid_serve.Push.create ~host:mhost ~port:mport with
        | Ok p -> Some p
        | Error msg -> failwith (Printf.sprintf "--metrics-push: %s" msg))
  in
  let g_epoch = Rfid_obs.Metrics.gauge "serve.epoch" in
  let g_queue = Rfid_obs.Metrics.gauge "serve.queue_depth" in
  let g_admitted = Rfid_obs.Metrics.gauge "serve.admitted" in
  let last_push = ref (Rfid_obs.Metrics.now ()) in
  let on_pass ~out_backlog:_ =
    match pusher with
    | None -> ()
    | Some p ->
        let now = Rfid_obs.Metrics.now () in
        if now -. !last_push >= metrics_push_every then begin
          last_push := now;
          Rfid_obs.Metrics.set g_epoch (float_of_int (Rfid_serve.Core.epoch core));
          Rfid_obs.Metrics.set g_queue
            (float_of_int (Rfid_serve.Core.queue_depth core));
          Rfid_obs.Metrics.set g_admitted
            (float_of_int (Rfid_serve.Core.admitted core));
          Rfid_serve.Push.send p (Rfid_obs.Openmetrics.render ())
        end
  in
  let on_listening ~host ~port =
    Printf.printf "# rfid-serve listening on %s:%d\n%!" host port
  in
  Rfid_serve.Server.run ~on_listening ~on_pass ~host ~port core;
  (* The loop has returned: stop was requested and Core.drain ran
     (flush + checkpoint through the hooks). Close the durable tail. *)
  Session.close session;
  (match pusher with Some p -> Rfid_serve.Push.close p | None -> ());
  Format.printf "drained at epoch %d (admitted %d)@."
    (Rfid_serve.Core.epoch core)
    (Rfid_serve.Core.admitted core);
  Format.printf "ingest: %a@." Rfid_robust.Ingest.pp_counters guard;
  Format.printf "engine: %a@." Rfid_core.Engine.pp_stats
    (Rfid_core.Engine.stats (Rfid_serve.Core.engine core))

let serve_cmd =
  let doc =
    "Serve the inference engine over TCP: line-framed PUT ingest with \
     backpressure, probabilistic RANGE/AT/EVENTS/STATS queries over live \
     posteriors, graceful SIGTERM drain. The wire protocol is documented in \
     PROTOCOL.md, operations in RUNBOOK.md."
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value
      & opt (int_in_range 0 65535) 4040
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "TCP port (0 = pick an ephemeral port; the chosen port is \
             announced on stdout).")
  in
  let admit_cap =
    Arg.(
      value
      & opt (int_at_least 1) 1024
      & info [ "admit-cap" ] ~docv:"N"
          ~doc:
            "Admission queue bound: PUTs beyond N queued observations are \
             refused with BUSY (never dropped silently).")
  in
  let events_keep =
    Arg.(
      value
      & opt (int_at_least 1) 4096
      & info [ "events-keep" ] ~docv:"N"
          ~doc:
            "Bound on the in-memory EVENTS ring; older events are evicted \
             (and counted in STATS events_dropped).")
  in
  let metrics_push =
    let hostport =
      let parse s =
        match String.rindex_opt s ':' with
        | None -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s))
        | Some i -> (
            let h = String.sub s 0 i in
            match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
            | Some p when h <> "" && p > 0 && p < 65536 -> Ok (h, p)
            | _ -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s)))
      in
      Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)
    in
    Arg.(
      value
      & opt (some hostport) None
      & info [ "metrics-push" ] ~docv:"HOST:PORT"
          ~doc:
            "Push OpenMetrics-text snapshots of the live registry to this UDP \
             (statsd-style) sink; see RUNBOOK.md.")
  in
  let metrics_push_every =
    Arg.(
      value
      & opt (float_in ~range:"(0, inf]" (fun r -> r > 0.)) 10.
      & info [ "metrics-push-every" ] ~docv:"SECONDS"
          ~doc:"Seconds between metrics pushes (> 0).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ host $ port $ engine_term $ admit_cap $ events_keep
      $ durability_term $ metrics_push $ metrics_push_every)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "probabilistic cleaning of mobile RFID streams (Tran et al., ICDE 2009)" in
  let info = Cmd.info "rfid_clean" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ simulate_cmd; infer_cmd; replay_cmd; calibrate_cmd; lab_cmd; serve_cmd ]))
