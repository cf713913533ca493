(** Engine configuration: particle budgets, the scalability variant
    (§IV), proposal choices, and the report policy. The engine runs the
    factorized filter only; the basic joint filter of §IV-A
    ([Basic_filter]) reads the same record but ignores [variant] and
    [num_object_particles]. *)

type variant =
  | Factorized  (** §IV-B: reader particles + per-object particle lists *)
  | Factorized_indexed  (** §IV-B + the spatial index of §IV-C *)
  | Factorized_compressed  (** §IV-B + §IV-C + belief compression (§IV-D) *)

type resample_scheme = Systematic | Multinomial | Residual

type proposal =
  | From_velocity
      (** propose reader motion from the learned average velocity
          (the paper's model verbatim) *)
  | From_reported_displacement
      (** condition the motion proposal on the displacement between
          consecutive reported locations — treats the location stream as
          a control input, which handles turns; systematic bias cancels
          in the difference *)
  | From_reported_location
      (** place reader hypotheses directly at the reported location —
          "the reported location is the true location". This is the
          paper's "motion model Off" strawman (Fig. 5(g)); it eats any
          systematic reporting error whole. *)

type heading_model =
  | Known_heading of (Rfid_model.Types.epoch -> float)
      (** reader orientation supplied externally (e.g. the application
          commanded the robot's heading) *)
  | Track_heading of { jump_prob : float }
      (** orientation tracked as hidden state: random-walk proposal with
          an occasional uniform re-draw so large turns remain reachable;
          shelf-tag evidence pins it down *)

type t = {
  variant : variant;
  num_reader_particles : int;  (** J, reader-location hypotheses *)
  num_object_particles : int;  (** K, per-object location hypotheses *)
  min_object_particles : int;
      (** floor of the adaptive per-object particle budget. Default =
          [num_object_particles], which disables adaptation entirely —
          every object keeps the fixed budget and the hot path does no
          extra work. When strictly below, each object's budget walks a
          doubling ladder
          [min, 2*min, 4*min, ..., num_object_particles], moving at
          most one rung per resample event: posterior spread (sqrt of
          the weighted covariance trace) at or above {!reinit_near}
          earns the full budget, and each halving of spread steps one
          rung down; stepping back up requires 1.5x the rung threshold
          (hysteresis). Shrinking resamples directly to the smaller
          count; growth resamples then replicates with keyed-RNG
          jitter, so budgets do not depend on the order objects are
          visited in. *)
  resample_ratio : float;  (** resample when ESS < ratio * n (0.5) *)
  resample_ess_ratio : float;
      (** additional ESS cap on every resample (object, reader and the
          basic filter's joint one): the gather+swap runs only when
          additionally [ess < resample_ess_ratio * n]. The default 1.0
          is vacuous (ESS never exceeds n), preserving bit-identical
          behavior; lowering it below [resample_ratio] skips resamples
          whose weight degeneracy is still mild, trading resampling
          work (and particle-diversity refresh) for throughput. Skips
          are counted in the [filter.resamples_skipped] metric. *)
  proposal : proposal;
  heading_model : heading_model;
  report_delay : int;
      (** epochs after entering scope at which a location event is
          emitted (the paper's experiments use 60 s) *)
  compress_after : int;
      (** epochs without a reading after which a
          [Factorized_compressed] engine compresses the object's belief *)
  decompress_particles : int;
      (** particle count when re-expanding a compressed belief (§V-D
          uses 10) *)
  resample_scheme : resample_scheme;
      (** resampling scheme for both reader and object particles
          (default [Systematic]; the others exist for ablation) *)
  proposal_noise_override : Rfid_geom.Vec3.t option;
      (** explicit per-axis reader-proposal noise, replacing the value
          derived from the model parameters — used by calibration, whose
          E-step deliberately inflates the {e weighting} sigma without
          wanting a wilder proposal (default [None]) *)
  degraded_widen_after : int;
      (** consecutive degraded (dead-reckoned) epochs after which object
          posteriors start widening each further degraded epoch,
          acknowledging that a long positioning outage erodes what the
          filter knows about object locations (default 10) *)
}

val create :
  ?variant:variant ->
  ?num_reader_particles:int ->
  ?num_object_particles:int ->
  ?min_object_particles:int ->
  ?resample_ratio:float ->
  ?resample_ess_ratio:float ->
  ?proposal:proposal ->
  ?heading_model:heading_model ->
  ?report_delay:int ->
  ?compress_after:int ->
  ?decompress_particles:int ->
  ?resample_scheme:resample_scheme ->
  ?proposal_noise_override:Rfid_geom.Vec3.t option ->
  ?degraded_widen_after:int ->
  unit ->
  t
(** Defaults: [Factorized_indexed], J = 100, K = 200 with no
    adaptation, systematic resampling at ESS ratio 0.5 with no ESS cap,
    displacement proposal, known heading 0, report delay 60 epochs,
    compression after 20 epochs re-expanded to 10 particles, no
    proposal-noise override, widening after 10 degraded epochs.
    @raise Invalid_argument on non-positive particle counts or
    horizons, a negative report delay, or a resample ratio outside
    (0, 1]. *)

(** {1 Fixed model constants}

    Values every deployment so far runs with; they are not settable. *)

val reinit_near : float
(** Reader displacement (ft) below which a re-detection reuses the
    existing particles unchanged (1). *)

val reinit_far : float
(** Reader displacement (ft) beyond which a re-detection discards all
    old particles (6); in between, half are kept and half re-drawn at
    the new location (§IV-A). *)

val out_of_scope_after : int
(** Epochs without a reading after which an object has left the
    reader's scope (15). *)

val init_overestimate : float
(** Widening factor of the sensor-model-based initialization cone
    (1.25). *)

val detection_threshold : float
(** Read-probability level treated as the sensing-region edge (0.02). *)

val max_sensing_range : float
(** Hard cap (ft) on the detection range derived from the sensor model
    (12) — guards cones and index boxes against calibrated models whose
    distance decay is unidentifiable from the training geometry. *)

val shelf_miss_weight : float
(** Tempering factor on the log-likelihood of shelf-tag {e misses} in
    reader weighting (0.25). Reads are the reliable reader evidence
    (Fig. 2(c)); misses mostly carry information through the sensor
    model's soft boundary, exactly where a fitted logistic deviates
    most from the true region, so full-strength miss evidence (1, the
    literal Eq. 5) lets model mismatch drag the reader posterior. *)

val degraded_noise_scale : float
(** Multiplier on the reader proposal noise during dead-reckoned epochs
    (3.0): with no location fix to anchor the proposal, the reader
    belief must spread faster than the motion model's nominal sigma. *)

val degraded_widen_sigma : float
(** Per-axis std-dev (ft) of the jitter applied to object particles on
    each widening epoch (0.25); compressed beliefs inflate their
    covariance by the equivalent amount. *)
