(** The basic (unfactorized) particle filter of §IV-A.

    Every particle is a joint hypothesis: one reader state plus a
    location for {e every} object. This is the textbook sequential
    importance resampling filter applied to the model of §III — correct,
    and the paper's scalability baseline: the particle count needed for
    a fixed accuracy grows quickly with the number of objects because a
    joint particle is only as good as its worst per-object sample
    (Fig. 3(a)), which is exactly what Fig. 5(i)/(j) demonstrate.

    The object universe must be declared up front ([num_objects]); the
    factorized filters discover objects from the stream instead. The
    joint particle count is [config.num_reader_particles]
    ([num_object_particles] is unused here). *)

type t

val create :
  world:Rfid_model.World.t ->
  params:Rfid_model.Params.t ->
  config:Config.t ->
  init_reader:Rfid_model.Reader_state.t ->
  num_objects:int ->
  rng:Rfid_prob.Rng.t ->
  t
(** @raise Invalid_argument if [num_objects < 0]. *)

val step : t -> Rfid_model.Types.observation -> unit
(** Advance one epoch: propose from the motion and object models, weight
    by the location report, shelf-tag and object-tag evidence, resample
    when the effective sample size degenerates.
    @raise Invalid_argument if observations arrive out of epoch order. *)

val estimate : t -> int -> (Rfid_geom.Vec3.t * Rfid_prob.Linalg.mat) option
(** Posterior mean and covariance of an object's location; [None] for an
    object id outside the declared universe or never read. *)

val reader_estimate : t -> Rfid_geom.Vec3.t
(** Posterior mean of the true reader location. *)

val newly_seen : t -> int list
(** Objects that (re-)entered the reader's scope during the last
    {!step}. *)

val iter_known : t -> (int -> unit) -> unit
(** Visit every known object id in ascending order (a scan of the
    declared universe — O(num_objects), list-free). *)

val num_known : t -> int
(** Number of known objects, O(1). *)

(** {1 Change feed}

    Same contract as [Factored_filter]'s: which objects' posteriors may
    have changed since the last {!clear_changes}. The joint weights
    move on every epoch, so every estimate may change on every epoch —
    the feed is the {!changes_dirty_all} flag alone and {!iter_dirty}
    never yields ids. *)

val changes_dirty_all : t -> bool
(** True after any {!step}/{!dead_reckon}/{!restore} since the last
    {!clear_changes}. *)

val iter_dirty : t -> (int -> unit) -> unit
(** Always empty for the joint filter — all changes surface through
    {!changes_dirty_all}. *)

val clear_changes : t -> unit
(** Consume the feed. *)

val epoch : t -> Rfid_model.Types.epoch
(** Epoch of the last processed observation; -1 initially. *)

val dead_reckon :
  ?shelf_tags:int list -> t -> epoch:Rfid_model.Types.epoch -> unit
(** Advance one epoch {e without} a usable location fix (missing or
    rejected by the ingest guard): reader hypotheses move by the
    motion model with proposal noise inflated by
    {!Config.degraded_noise_scale}. [shelf_tags] (default [[]], expected
    deduplicated and ascending) lists shelf tags read during the
    outage; their exactly-known positions re-weight the joint
    hypotheses, localizing the dead-reckoned reader. With none,
    weights are unchanged. After
    [config.degraded_widen_after] consecutive dead-reckoned epochs,
    object hypotheses are additionally jittered by
    {!Config.degraded_widen_sigma} per epoch (clamped to shelves), so
    posterior spread honestly reflects the outage.
    @raise Invalid_argument if [epoch] is not beyond the current one. *)

val degraded_epochs : t -> int
(** Total dead-reckoned epochs so far. *)

(** {1 Checkpointing} *)

(** Complete dynamic filter state as plain data. The representation is
    public so [Rfid_robust.Codec] can serialize it field by field into
    the portable checkpoint format; treat it as read-only elsewhere.
    Field order is part of the legacy (v1, Marshal) checkpoint format —
    do not add, remove or reorder fields without bumping it. *)
type snapshot = {
  s_rng : int64;  (** SplitMix64 generator state *)
  s_num_objects : int;
  s_particles :
    (Rfid_model.Reader_state.t * Rfid_geom.Vec3.t array * float) array;
      (** per joint particle: reader pose, per-object locations, log weight *)
  s_last_reported : Rfid_geom.Vec3.t option;
  s_epoch : int;
  s_last_read : int array;  (** -1 = never read *)
  s_last_read_reader : Rfid_geom.Vec3.t array;
  s_newly_seen : int list;
  s_consecutive_degraded : int;
  s_degraded_total : int;
}

val snapshot : t -> snapshot
(** Deep copy of the filter's dynamic state; the filter can keep
    running afterwards. *)

val snapshot_epoch : snapshot -> int
(** Epoch at which the snapshot was taken (-1 for a fresh filter). *)

val restore :
  world:Rfid_model.World.t ->
  params:Rfid_model.Params.t ->
  config:Config.t ->
  snapshot ->
  t
(** Rebuild a filter from a snapshot plus the same static inputs it was
    created with. The restored filter's future output is bit-identical
    to the original's. *)
