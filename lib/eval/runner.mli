(** Experiment runner: run a filter over a trace and measure accuracy
    and cost — the loop every bench and example shares, for the engine
    ({!run_engine}) and the basic joint filter ({!run_joint}) alike. *)

type result = {
  events : Rfid_core.Event.t list;
  error : Metrics.error;
  total_readings : int;  (** tag readings processed (the throughput unit of §V) *)
  elapsed_s : float;  (** wall-clock inference time, seconds *)
  ms_per_reading : float;
  max_objects_processed : int;  (** peak per-epoch scope size *)
  live_heap_mb : float;
      (** growth of major-heap live words over the run (MB), i.e. the
          engine's footprint (events included, the input trace excluded)
          — the §V-D memory claim is about exactly this: compression
          keeps idle objects' beliefs at 9 floats instead of K
          particles *)
  epochs : int;  (** observations streamed *)
  minor_words_per_epoch : float;
      (** words allocated on the minor heap per observation — the
          number the zero-allocation hot path drives toward the fixed
          per-event cost (steady-state filter loops allocate nothing) *)
  major_words_per_epoch : float;
      (** words allocated directly on the major heap per observation
          (promotions excluded, so minor + major is total allocation) *)
  allocated_words_per_epoch : float;
      (** minor + major words per observation — what the perf gate
          compares against the committed baseline *)
  lat_p50_us : float;  (** per-epoch wall-clock latency percentiles *)
  lat_p95_us : float;
  lat_p99_us : float;
}

val run_engine :
  ?params:Rfid_model.Params.t ->
  config:Rfid_core.Config.t ->
  ?seed:int ->
  Rfid_model.Trace.t ->
  result
(** Build an engine on the trace's world and stream every observation
    through it, starting from the trace's first true reader state (the
    paper assumes R_1 known). [params] defaults to
    {!Rfid_model.Params.default}.
    @raise Invalid_argument on an empty trace. *)

val run_joint :
  params:Rfid_model.Params.t ->
  config:Rfid_core.Config.t ->
  seed:int ->
  Rfid_model.Trace.t ->
  result
(** The same run and measurements for the basic joint filter of §IV-A
    ([Rfid_core.Basic_filter], with [config.num_reader_particles] joint
    particles over the trace's declared objects), reported through the
    engine's report policy ([Rfid_core.Report_queue]): the paper's
    Fig. 5(i)/(j) baseline. It never dead-reckons, so every event is
    undegraded, and [max_objects_processed] is the object count.
    @raise Invalid_argument on an empty trace. *)
