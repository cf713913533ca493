(* Loopback serving benchmark for `rfid_clean serve`.

   One run of one workload:
   1. builds the workload's inputs from --seed (simulated PUT lines and
      a fixed open-loop query schedule);
   2. boots the real server binary several times to time its set-up,
      keeps the last instance, and drives it over loopback with one
      writer and one query connection: an untimed warm-up, then the
      timed phase, then the output-check queries;
   3. replays the same request batches in-process as the reference for
      the output check, and with --trace 1 replays them again with every
      layer call timed, for the per-layer breakdown.

   Usage: loadgen --cli PATH --workload NAME --seed N --seconds S
   --trace 0|1. The last stdout line is the JSON result; the exit code
   is non-zero when a check fails. *)

open Util

let gen_lag_bound_ms = 50.
let reconcile_tolerance = 0.10

(* ---------------- live run ---------------- *)

type live = {
  setup_s : float list;
  greeting : string;
  ingest_s : float;  (* timed-phase start to the final SYNC reply *)
  timed_acked : int;  (* PUTs of the timed phase the server acked *)
  acked : int;  (* all acked PUTs, warm-up included *)
  visible : windowed;
  lat : (Workload.verb * windowed) list;
  depths : samples;
  busy : int;
  attempted : int;
  failed : int;
  lag : samples;
  log : Live.sent list;
  checks : string list;
  stats : string;
  rss_mib : float;
  clean_exit : bool;
}

let server_args (spec : Workload.spec) =
  [
    "serve"; "--port"; "0"; "--domains"; "1";
    "--objects"; string_of_int spec.Workload.objects;
    "--seed"; string_of_int Workload.engine_seed;
    "--variant"; Workload.variant;
    "--particles"; string_of_int Workload.particles;
  ]

let check_requests (inp : Workload.inputs) =
  List.init inp.Workload.spec.Workload.objects (Printf.sprintf "AT %d")
  @ inp.Workload.check_ranges

let is_multi line =
  List.exists (fun p -> starts_with ~prefix:p line) [ "RANGE"; "NEAR"; "STATS"; "EVENTS" ]

type boot = { cli : string; args : string list; err_path : string; deadline : float }

(* Spawn the server and wait for its greeting on a first connection;
   the elapsed time is one set-up sample. *)
let start_server b =
  let t0 = now () in
  let s = Live.spawn ~cli:b.cli ~args:b.args ~err_path:b.err_path in
  let port = Live.wait_port s ~deadline:b.deadline in
  let c = Live.connect port in
  let g = Live.read_greeting c ~deadline:b.deadline in
  (now () -. t0, s, port, c, g)

(* A set-up sample from a server stopped straight after its greeting.
   Samples are taken before and after the run's other phases, so their
   median spans the run rather than one moment of it. *)
let probe_setup b =
  let dt, s, _, c, _ = start_server b in
  Live.close c;
  if not (Live.stop s) then failwith "set-up server did not exit cleanly";
  dt

let live_run b ~(inp : Workload.inputs) =
  let spec = inp.Workload.spec in
  let deadline = b.deadline in
  let probes = List.init 2 (fun _ -> probe_setup b) in
  let setup, server, port, w, greeting = start_server b in
  let q = Live.connect port in
  ignore (Live.read_greeting q ~deadline);
  let conns = [ (0, w); (1, q) ] in
  let log = ref [] in
  let lag = samples () in
  let timed = ref false in
  let on_send s l =
    log := s :: !log;
    if !timed then add lag l
  in
  let acked = ref 0 and timed_acked = ref 0 in
  let failed = ref 0 and attempted = ref 0 and busy = ref 0 in
  let warm = inp.Workload.warm and total = Array.length inp.Workload.lines in
  let span = float_of_int (total - warm) /. spec.Workload.put_rate in
  let visible = windowed ~span and depths = samples () in
  let t0 = ref 0. in
  let unsynced = ref [] in
  let request ~due line on_ok =
    if !timed then incr attempted;
    {
      Live.line;
      due;
      multi = is_multi line;
      on_reply =
        (fun text at ->
          if starts_with ~prefix:"OK " text then on_ok text at
          else begin
            if !timed then incr failed;
            if starts_with ~prefix:"BUSY" text then incr busy
          end);
    }
  in
  let put ~due i =
    request ~due ("PUT " ^ inp.Workload.lines.(i)) (fun text _ ->
        incr acked;
        if !timed then begin
          incr timed_acked;
          unsynced := due :: !unsynced;
          match int_of_string_opt (String.trim (String.sub text 3 (String.length text - 3))) with
          | Some d -> add depths (float_of_int d)
          | None -> ()
        end)
  in
  let sync ~due on_ok =
    request ~due "SYNC" (fun _ at ->
        if !timed then List.iter (fun d -> add_at visible ~offset:(d -. !t0) (at -. d)) !unsynced;
        unsynced := [];
        on_ok at)
  in
  (* Warm-up, closed loop: a window of PUTs plus its SYNC, the next
     window released by the SYNC's reply. *)
  let rec windows ~from ~at =
    if from < warm then begin
      let stop = Int.min warm (from + Workload.warmup_window) in
      for i = from to stop - 1 do
        Live.push w (put ~due:at i)
      done;
      Live.push w (sync ~due:at (fun at' -> windows ~from:stop ~at:at'))
    end
  in
  windows ~from:0 ~at:(now ());
  let lost_warm = Live.drive ~on_send ~deadline conns in
  if lost_warm > 0 || !acked <> warm then failwith "warm-up did not complete";
  (* Timed phase: the whole schedule is fixed before it starts. *)
  timed := true;
  t0 := now ();
  let t0 = !t0 in
  let t_end = ref nan in
  let lat = List.map (fun (v, _) -> (v, windowed ~span)) spec.Workload.mix in
  Array.iter
    (fun (qr : Workload.query) ->
      let due = t0 +. qr.Workload.q_due in
      Live.push q
        (request ~due qr.Workload.q_line (fun _ at ->
             add_at (List.assoc qr.Workload.q_verb lat) ~offset:qr.Workload.q_due (at -. due))))
    inp.Workload.queries;
  for i = warm to total - 1 do
    let k = i - warm in
    let due = t0 +. (float_of_int k /. spec.Workload.put_rate) in
    Live.push w (put ~due i);
    if (k + 1) mod Workload.sync_every = 0 || i = total - 1 then
      Live.push w (sync ~due (fun at -> if i = total - 1 then t_end := at))
  done;
  let lost = Live.drive ~on_send ~deadline conns in
  failed := !failed + lost;
  timed := false;
  (* Output check: STATS, AT for every object, the fixed RANGE set. *)
  let stats = ref "" in
  let captured = ref [] in
  let at = now () in
  Live.push q (request ~due:at "STATS" (fun text _ -> stats := text));
  List.iter
    (fun line ->
      Live.push q
        {
          Live.line;
          due = at;
          multi = is_multi line;
          on_reply = (fun text _ -> captured := text :: !captured);
        })
    (check_requests inp);
  if Live.drive ~deadline conns > 0 then failwith "output-check queries went unanswered";
  let rss_mib = Option.value ~default:0. (vm_hwm_mib server.Live.pid) in
  Live.close w;
  Live.close q;
  let clean_exit = Live.stop server in
  {
    setup_s = setup :: probes;
    greeting;
    ingest_s = !t_end -. t0;
    timed_acked = !timed_acked;
    acked = !acked;
    visible;
    lat;
    depths;
    busy = !busy;
    attempted = !attempted;
    failed = !failed;
    lag;
    log = List.rev !log;
    checks = List.rev !captured;
    stats = !stats;
    rss_mib;
    clean_exit;
  }

(* ---------------- checks ---------------- *)

let stats_kv text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ k; v ] when k <> "OK" -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
         | _ -> None)

(* Mean XY distance from each object's final AT mean to its true place,
   and how many objects had one. *)
let err_xy (inp : Workload.inputs) checks =
  let errs =
    List.filter_map
      (fun reply ->
        match String.split_on_char ' ' (String.trim reply) with
        | [ "OK"; obj; _epoch; x; y; _z; _sd ] -> (
            match (int_of_string_opt obj, float_of_string_opt x, float_of_string_opt y) with
            | Some o, Some x, Some y ->
                let t = inp.Workload.truth.(o) in
                Some (Float.hypot (x -. t.Rfid_geom.Vec3.x) (y -. t.Rfid_geom.Vec3.y))
            | _ -> None)
        | _ -> None)
      checks
  in
  let n = List.length errs in
  ((if n = 0 then 0. else List.fold_left ( +. ) 0. errs /. float_of_int n), n)

let first_mismatch requests live reference =
  let rec go = function
    | q :: qs, l :: ls, r :: rs ->
        if l = r then go (qs, ls, rs)
        else Some (Printf.sprintf "reply to %s differs:\n  live: %S\n  ref:  %S" q l r)
    | [], [], [] -> None
    | _ -> Some "live and reference answered a different number of check requests"
  in
  go (requests, live, reference)

(* ---------------- metrics ---------------- *)

let ms s = s *. 1e3
let us s = s *. 1e6

let end_to_end (lv : live) ~setup_s =
  let lat v = Option.value ~default:(windowed ~span:1.) (List.assoc_opt v lv.lat) in
  let p50 w = ms (quantile w.all 0.5) and p99 w = ms (tail_p99 w) in
  [
    ("setup_s", median_list setup_s, "s");
    ("ingest_eps", float_of_int lv.timed_acked /. lv.ingest_s, "epochs/s");
    ("visible_p50_ms", p50 lv.visible, "ms");
    ("visible_p99_ms", p99 lv.visible, "ms");
    ("range_p50_ms", p50 (lat Workload.Range), "ms");
    ("at_p50_ms", p50 (lat Workload.At), "ms");
    ("near_p50_ms", p50 (lat Workload.Near), "ms");
    ( "ok_frac",
      1. -. (float_of_int lv.failed /. float_of_int (Int.max 1 lv.attempted)),
      "ratio" );
    ("server_rss_mb", lv.rss_mib, "MiB");
  ]

(* Share of the replay loop's wall time not spent inside a timed layer
   call: the loop's own bookkeeping plus timer overhead. *)
let reconcile_gap (r : Replay.result) = (r.Replay.busy_s -. r.Replay.layer_s) /. r.Replay.busy_s

let per_layer (inp : Workload.inputs) (lv : live) ~err ~(untraced : Replay.result)
    ~(traced : Replay.result) =
  let counters, hists = traced.Replay.registry in
  let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  let counter_prefix prefix =
    List.fold_left
      (fun acc (n, v) -> if starts_with ~prefix n then acc +. float_of_int v else acc)
      0. counters
  in
  let hist name =
    Option.value (List.assoc_opt name hists)
      ~default:{ Replay.h_count = 0; h_sum = 0.; h_p50 = 0.; h_p99 = 0. }
  in
  let h_sum name = (hist name).Replay.h_sum in
  let h_mean name =
    let h = hist name in
    if h.Replay.h_count = 0 then 0. else h.Replay.h_sum /. float_of_int h.Replay.h_count
  in
  let tm = traced.Replay.timings in
  let verb v = Replay.verb_samples tm v in
  let epochs = float_of_int (Int.max 1 traced.Replay.epochs) in
  let per_epoch v = v /. epochs in
  let lat v = Option.value ~default:(windowed ~span:1.) (List.assoc_opt v lv.lat) in
  let ping = (lat Workload.Ping).all in
  let sat = counter "health.saturated_particles" and evals = counter "health.sensor_evals" in
  let ats = float_of_int (Int.max 1 (count (verb "AT"))) in
  [
    ("server.ping_p50_us", us (quantile ping 0.5), "us");
    ("server.ping_p99_us", us (quantile ping 0.99), "us");
    ("wire.range_p99_ms", ms (tail_p99 (lat Workload.Range)), "ms");
    ("wire.at_p99_ms", ms (tail_p99 (lat Workload.At)), "ms");
    ("wire.near_p99_ms", ms (tail_p99 (lat Workload.Near)), "ms");
    ("admission.depth_p99", quantile lv.depths 0.99, "count");
    ("admission.busy", float_of_int lv.busy, "count");
    ( "framing.feed_ns_per_line",
      sum tm.Replay.framing *. 1e9 /. float_of_int (Int.max 1 tm.Replay.framed_lines),
      "ns" );
    ("trace_io.parse_ns", Replay.parse_ns_per_line inp, "ns");
    ("core.put_p50_us", us (quantile (verb "PUT") 0.5), "us");
    ("core.sync_p99_us", us (quantile (verb "SYNC") 0.99), "us");
    ("core.range_p50_us", us (quantile (verb "RANGE") 0.5), "us");
    ("core.range_p99_us", us (quantile (verb "RANGE") 0.99), "us");
    ("core.at_p50_us", us (quantile (verb "AT") 0.5), "us");
    ("core.near_p50_us", us (quantile (verb "NEAR") 0.5), "us");
    ("core.near_p99_us", us (quantile (verb "NEAR") 0.99), "us");
    ( "core.range_answers_mean",
      float_of_int tm.Replay.range_answers /. float_of_int (Int.max 1 (count (verb "RANGE"))),
      "count" );
    ( "core.tick_us_per_epoch",
      us (sum tm.Replay.tick) /. float_of_int (Int.max 1 tm.Replay.tick_epochs),
      "us" );
    ("query.maintain_us_per_call", us (h_mean "stage.query_maintain"), "us");
    ("query.refits_per_epoch", per_epoch (counter "query.index_updates"), "count");
    ("query.fit_cache_hit_rate", counter "query.fit_cache_hits" /. ats, "ratio");
    ("query.full_rebuilds", counter "query.full_rebuilds", "count");
    ("ingest.admit_ns", h_mean "stage.ingest" *. 1e9, "ns");
    ("ingest.faults", counter_prefix "ingest.fault.", "count");
    ("engine.err_xy_ft", err, "ft");
    ("engine.step_p50_us", us (hist "stage.step").Replay.h_p50, "us");
    ("engine.step_p99_us", us (hist "stage.step").Replay.h_p99, "us");
    ("filter.pose_memo_us_per_epoch", us (per_epoch (h_sum "stage.pose_memo")), "us");
    ("filter.weighting_us_per_epoch", us (per_epoch (h_sum "stage.weighting")), "us");
    ("filter.resampling_us_per_epoch", us (per_epoch (h_sum "stage.resampling")), "us");
    ("filter.report_us_per_epoch", us (per_epoch (h_sum "stage.report")), "us");
    ("filter.sensor_evals_per_epoch", per_epoch evals, "count");
    ("filter.sat_cull_rate", (if sat +. evals > 0. then sat /. (sat +. evals) else 0.), "ratio");
    ( "filter.resamples_per_epoch",
      per_epoch (counter "filter.object_resamples" +. counter "filter.reader_resamples"),
      "count" );
    ("wal.append_p50_us", us (quantile tm.Replay.wal_append 0.5), "us");
    ("wal.append_p99_us", us (quantile tm.Replay.wal_append 0.99), "us");
    ("wal.fsyncs", counter "wal.fsyncs", "count");
    ("codec.encode_ms", ms (h_mean "stage.checkpoint_encode"), "ms");
    ("checkpoint.save_ms_max", ms (max_of tm.Replay.checkpoint_save), "ms");
    ("checkpoint.bytes", float_of_int traced.Replay.checkpoint_bytes, "bytes");
    ("gc.minor_words_per_epoch", per_epoch traced.Replay.gc_minor_words, "words");
    ("gc.major_collections", float_of_int traced.Replay.gc_major_collections, "count");
    ("bench.gen_lag_p99_ms", ms (quantile lv.lag 0.99), "ms");
    ( "bench.trace_overhead_frac",
      (traced.Replay.busy_s -. untraced.Replay.busy_s) /. untraced.Replay.busy_s,
      "ratio" );
    ("bench.reconcile_gap_frac", reconcile_gap traced, "ratio");
  ]

(* ---------------- main ---------------- *)

let print_metrics title metrics =
  Printf.printf "# %s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "#   %-34s %16.6f %s\n" name v unit) metrics

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (json_float v) (json_string unit))
          metrics))

let facts (inp : Workload.inputs) ~seconds ~durable_dir =
  let spec = inp.Workload.spec in
  Printf.sprintf
    "{\"workload\": %s, \"nproc\": %d, \"ocaml\": %s, \"commit\": %s, \
     \"workload_seed\": %d, \"engine_seed\": %d, \"objects\": %d, \"variant\": %s, \
     \"particles\": %d, \"seconds\": %g, \"warmup_epochs\": %d, \"timed_epochs\": %d, \
     \"put_epochs_per_s\": %g, \"sync_after_puts\": %d, \"query_req_per_s\": %g, \
     \"query_mix\": %s, \"replay_durability_dir\": %s, \"replay_durability_fs\": %s}"
    (json_string spec.Workload.name)
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string (git_commit ())) inp.Workload.seed
    Workload.engine_seed spec.Workload.objects (json_string Workload.variant)
    Workload.particles seconds inp.Workload.warm
    (Array.length inp.Workload.lines - inp.Workload.warm)
    spec.Workload.put_rate Workload.sync_every spec.Workload.query_rate
    (json_string
       (String.concat " "
          (List.map
             (fun (v, w) -> Printf.sprintf "%s:%d" (Workload.verb_name v) w)
             spec.Workload.mix)))
    (json_string (if spec.Workload.durable then durable_dir else "none"))
    (json_string (if spec.Workload.durable then fs_type durable_dir else "none"))

let usage () =
  prerr_endline
    "usage: loadgen --cli PATH --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads:";
  List.iter (fun (s : Workload.spec) -> prerr_endline ("  " ^ s.Workload.name)) Workload.specs;
  exit 2

let parse_args () =
  let cli = ref "" and workload = ref "" and seed = ref (-1) in
  let seconds = ref 20. and trace = ref 0 in
  let rec go = function
    | "--cli" :: v :: rest -> cli := v; go rest
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match Workload.find !workload with
  | Some spec when !cli <> "" && !seed >= 0 && !seconds > 0. && (!trace = 0 || !trace = 1) ->
      (!cli, spec, !seed, !seconds, !trace = 1)
  | _ -> usage ()

let run ~cli ~spec ~seed ~seconds ~trace ~dir ~deadline =
  let t_gen = now () in
  let inp = Workload.build spec ~seed ~seconds in
  Printf.printf "# inputs: %d PUT lines (%d warm-up), %d queries, built in %.2f s\n%!"
    (Array.length inp.Workload.lines) inp.Workload.warm
    (Array.length inp.Workload.queries) (now () -. t_gen);
  Printf.printf "# facts %s\n%!" (facts inp ~seconds ~durable_dir:dir);
  let b =
    {
      cli;
      args = server_args spec;
      err_path = Filename.concat dir "server.err";
      deadline;
    }
  in
  let lv = live_run b ~inp in
  Printf.printf "# live: %d requests, %d failed, timed phase %.2f s\n%!" lv.attempted lv.failed
    lv.ingest_s;
  let after_live = List.init 2 (fun _ -> probe_setup b) in
  let requests = check_requests inp in
  let replay ~timed name =
    Replay.run inp ~log:lv.log ~checks:requests ~timed ~dir:(Filename.concat dir name)
  in
  let untraced = replay ~timed:false "replay" in
  Printf.printf "# reference replay: %d epochs in %.2f s\n%!" untraced.Replay.epochs
    untraced.Replay.busy_s;
  let after_replay = List.init 2 (fun _ -> probe_setup b) in
  let setup_s = lv.setup_s @ after_live @ after_replay in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if lv.greeting <> untraced.Replay.greeting then
    problem "greeting differs: live %S, reference %S" lv.greeting untraced.Replay.greeting;
  (match first_mismatch requests lv.checks untraced.Replay.checks with
  | Some m -> problem "output check: %s" m
  | None -> ());
  let kv = stats_kv lv.stats in
  if List.assoc_opt "admitted" kv <> Some lv.acked then
    problem "server admitted %s epochs, %d PUTs were acked"
      (Option.fold ~none:"?" ~some:string_of_int (List.assoc_opt "admitted" kv))
      lv.acked;
  List.iter
    (fun (k, v) ->
      if starts_with ~prefix:"fault." k && v <> 0 then problem "server counted %d %s" v k)
    kv;
  if lv.acked <> Array.length inp.Workload.lines then
    problem "%d of %d PUTs were not acked" (Array.length inp.Workload.lines - lv.acked)
      (Array.length inp.Workload.lines);
  if not lv.clean_exit then problem "server did not drain and exit 0 on SIGTERM";
  let lag_p99 = ms (quantile lv.lag 0.99) in
  if lag_p99 > gen_lag_bound_ms then
    problem "generator lagged its schedule: p99 %.1f ms > %.0f ms" lag_p99
      gen_lag_bound_ms;
  let err, answered = err_xy inp lv.checks in
  Printf.printf "# output check: %d AT + %d RANGE replies compared, %d objects located\n"
    spec.Workload.objects (List.length inp.Workload.check_ranges) answered;
  let metrics =
    if not trace then end_to_end lv ~setup_s
    else begin
      Rfid_obs.Metrics.reset Rfid_obs.Metrics.global;
      let traced = replay ~timed:true "traced" in
      if traced.Replay.checks <> untraced.Replay.checks then
        problem "traced replay answered differently from the untraced one";
      let gap = reconcile_gap traced in
      if gap > reconcile_tolerance then
        problem "per-layer calls cover only %.1f%% of the replay loop"
          (100. *. (1. -. gap));
      per_layer inp lv ~err ~untraced ~traced
    end
  in
  List.iter
    (fun (v, s) ->
      Printf.printf "# samples: %s %d\n" (Workload.verb_name v) (count s.all))
    lv.lat;
  Printf.printf "# samples: visible %d, set-up %d\n" (count lv.visible.all) (List.length setup_s);
  print_metrics (if trace then "per-layer (traced replay)" else "end-to-end") metrics;
  List.iter (fun p -> Printf.eprintf "loadgen: FAIL: %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  print_endline
    (result_line ~correct ~attempted:lv.attempted ~failed:lv.failed metrics);
  if correct then 0 else 1

let () =
  let cli, spec, seed, seconds, trace = parse_args () in
  (* Every run finishes well inside three minutes or gives up. *)
  let deadline = now () +. 170. in
  let root = Filename.concat (Sys.getcwd ()) ".perfbench" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    Live.kill_all ();
    rm_rf dir;
    try Unix.rmdir root with Unix.Unix_error _ -> ()
  in
  let status =
    Fun.protect ~finally:cleanup (fun () ->
        try run ~cli ~spec ~seed ~seconds ~trace ~dir ~deadline
        with exn ->
          Printf.eprintf "loadgen: %s\n%!" (Printexc.to_string exn);
          1)
  in
  exit status
