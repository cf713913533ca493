type result = {
  events : Rfid_core.Event.t list;
  error : Metrics.error;
  total_readings : int;
  elapsed_s : float;
  ms_per_reading : float;
  max_objects_processed : int;
  live_heap_mb : float;
  epochs : int;
  minor_words_per_epoch : float;
  major_words_per_epoch : float;
  allocated_words_per_epoch : float;
  lat_p50_us : float;
  lat_p95_us : float;
  lat_p99_us : float;
}

(* Nearest-rank percentile over a sorted copy; 0 for an empty run. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(Int.min (n - 1) (int_of_float (q *. float_of_int n)))

let init_reader (trace : Rfid_model.Trace.t) =
  if Array.length trace.Rfid_model.Trace.steps = 0 then
    invalid_arg "Runner: empty trace";
  trace.Rfid_model.Trace.steps.(0).Rfid_model.Trace.true_reader

(* The one measurement loop: [step] feeds an observation and returns
   its events, [scope] reads the objects the last step touched, and
   [flush] ends the stream. *)
let measure ~step ~scope ~flush (trace : Rfid_model.Trace.t) =
  let observations = Rfid_model.Trace.observations trace in
  let total_readings =
    List.fold_left
      (fun acc (o : Rfid_model.Types.observation) ->
        acc + List.length o.Rfid_model.Types.o_read_tags)
      0 observations
  in
  let epochs = List.length observations in
  (* Per-epoch latencies land in a preallocated buffer so the
     measurement loop itself stays off the allocation counters (modulo
     a boxed float per clock read, identical across variants). *)
  let lat = Array.make (Int.max epochs 1) 0. in
  Gc.full_major ();
  let baseline_words = (Gc.stat ()).Gc.live_words in
  (* Minor words from [Gc.minor_words], which counts the current minor
     heap too: the [Gc.quick_stat] field only advances at a minor
     collection, so its delta over a short run can read 0. *)
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Rfid_obs.Metrics.now () in
  let max_scope = ref 0 in
  let i = ref 0 in
  let events =
    List.concat_map
      (fun obs ->
        let e0 = Rfid_obs.Metrics.now () in
        let evs = step obs in
        lat.(!i) <- Rfid_obs.Metrics.now () -. e0;
        incr i;
        max_scope := Int.max !max_scope (scope ());
        evs)
      observations
  in
  let events = events @ flush () in
  let elapsed_s = Rfid_obs.Metrics.now () -. t0 in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  Gc.full_major ();
  let live_heap_mb =
    float_of_int (Int.max 0 ((Gc.stat ()).Gc.live_words - baseline_words))
    *. float_of_int (Sys.word_size / 8)
    /. 1_048_576.
  in
  let per_epoch x = if epochs = 0 then 0. else x /. float_of_int epochs in
  let minor_alloc = w1 -. w0 in
  (* Words allocated directly on the major heap: major growth minus what
     the minor collector promoted into it. *)
  let major_alloc =
    Float.max 0.
      (g1.Gc.major_words -. g0.Gc.major_words
      -. (g1.Gc.promoted_words -. g0.Gc.promoted_words))
  in
  let sorted = Array.sub lat 0 epochs in
  Array.sort compare sorted;
  let error = Metrics.inference_error events trace in
  {
    events;
    error;
    total_readings;
    elapsed_s;
    ms_per_reading =
      (if total_readings = 0 then 0. else 1000. *. elapsed_s /. float_of_int total_readings);
    max_objects_processed = !max_scope;
    live_heap_mb;
    epochs;
    minor_words_per_epoch = per_epoch minor_alloc;
    major_words_per_epoch = per_epoch major_alloc;
    allocated_words_per_epoch = per_epoch (minor_alloc +. major_alloc);
    lat_p50_us = 1e6 *. percentile sorted 0.50;
    lat_p95_us = 1e6 *. percentile sorted 0.95;
    lat_p99_us = 1e6 *. percentile sorted 0.99;
  }

let run_engine ?(params = Rfid_model.Params.default) ~config ?(seed = 0)
    (trace : Rfid_model.Trace.t) =
  let engine =
    Rfid_core.Engine.create ~world:trace.Rfid_model.Trace.world ~params ~config
      ~init_reader:(init_reader trace) ~seed ()
  in
  measure ~step:(Rfid_core.Engine.step engine)
    ~scope:(fun () -> Rfid_core.Engine.objects_processed_last_step engine)
    ~flush:(fun () -> Rfid_core.Engine.flush engine)
    trace

let run_joint ~params ~config ~seed (trace : Rfid_model.Trace.t) =
  let num_objects = trace.Rfid_model.Trace.num_objects in
  let filter =
    Rfid_core.Basic_filter.create ~world:trace.Rfid_model.Trace.world ~params ~config
      ~init_reader:(init_reader trace) ~num_objects
      ~rng:(Rfid_prob.Rng.create ~seed)
  in
  let reports =
    Rfid_core.Report_queue.create ~delay:config.Rfid_core.Config.report_delay
      ~estimate:(Rfid_core.Basic_filter.estimate filter)
  in
  let step (obs : Rfid_model.Types.observation) =
    Rfid_core.Basic_filter.step filter obs;
    Rfid_core.Report_queue.schedule reports ~epoch:obs.Rfid_model.Types.o_epoch
      (Rfid_core.Basic_filter.newly_seen filter);
    Rfid_core.Report_queue.drain_due reports ~at:obs.Rfid_model.Types.o_epoch
      ~degraded:false
  in
  (* Every joint particle holds every object, so each step touches the
     whole declared universe. *)
  measure ~step
    ~scope:(fun () -> num_objects)
    ~flush:(fun () ->
      Rfid_core.Report_queue.flush reports ~at:(Rfid_core.Basic_filter.epoch filter)
        ~degraded:false)
    trace
