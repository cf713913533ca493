(** The factorized particle filter (§IV-B), optionally augmented with
    the spatial index (§IV-C) and belief compression (§IV-D).

    Instead of joint particles, the filter keeps J weighted {e reader
    particles} and, per object, K weighted {e object particles}, each
    holding a location hypothesis plus a pointer to the reader particle
    it was weighted against — Fig. 3(b)/(c) of the paper. Because the
    model and the proposal factorize identically (Eq. 5), the factored
    weight updates are equivalent to the unfactored ones while
    representing an exponentially larger joint particle set in linear
    space.

    With [Factorized_indexed] or [Factorized_compressed] variants, a
    spatial index ({!Rfid_geom.Dyn_index}) over past sensing-region
    bounding boxes limits each epoch's
    work to the objects of Cases 1 and 2 (read now, or previously read
    near the current reader position); Case 4 objects' near-zero read
    probability is rounded to zero, Case 3 objects are invisible by
    construction (Fig. 4). With [Factorized_compressed], an object's
    particle cloud is collapsed to its moment-matched Gaussian once the
    object has been out of scope for a while, and re-expanded into a
    small particle set when the tag is read again.

    Objects are discovered from the stream; nothing about the object
    universe is declared up front. *)

type t

val create :
  world:Rfid_model.World.t ->
  params:Rfid_model.Params.t ->
  config:Config.t ->
  init_reader:Rfid_model.Reader_state.t ->
  rng:Rfid_prob.Rng.t ->
  t
(** The [config.variant] field selects plain [Factorized] (all known
    objects processed every epoch), [Factorized_indexed], or
    [Factorized_compressed]. *)

val step : t -> Rfid_model.Types.observation -> unit
(** Advance one epoch. @raise Invalid_argument if observations arrive
    out of epoch order. *)

val estimate : t -> int -> (Rfid_geom.Vec3.t * Rfid_prob.Linalg.mat) option
(** Posterior mean and covariance of an object's location ([None] if the
    object was never read). Works on both particle and compressed
    representations. *)

val reader_estimate : t -> Rfid_geom.Vec3.t
(** Weighted posterior mean of the reader's location. *)

val newly_seen : t -> int list
(** Objects first read at the last {!step}, ascending. *)

val known_objects : t -> int list
(** Every object read so far, ascending. *)

val iter_known : t -> (int -> unit) -> unit
(** Visit every known object id in ascending order without building a
    list — backed by a sorted array maintained at discovery, so no
    per-call sort either. *)

val num_known : t -> int
(** Number of known objects, O(1). *)

(** {1 Change feed}

    The filter records which objects' posteriors may have changed
    since the consumer's last {!clear_changes}: the processed scope of
    every {!step} (word-wise bitset union, O(scope words)), belief
    compressions, and — via the {!changes_dirty_all} escape hatch —
    degraded-mode widening and {!restore}, which touch every object.
    The feed is conservative (a flagged object's estimate may be
    bitwise unchanged) but complete: an unflagged object's estimate is
    exactly what it was. Single consumer: whoever calls
    [clear_changes] owns the feed. *)

val changes_dirty_all : t -> bool
(** Every object must be treated as changed (widening or restore since
    the last {!clear_changes}). *)

val iter_dirty : t -> (int -> unit) -> unit
(** Visit the changed ids, ascending. Yields nothing while
    {!changes_dirty_all} holds — check it first. *)

val clear_changes : t -> unit
(** Consume the feed: empties the dirty set and lowers the
    everything-changed flag. *)

val epoch : t -> Rfid_model.Types.epoch
(** Epoch of the last processed observation (-1 before the first). *)

val dead_reckon :
  ?shelf_tags:int list -> t -> epoch:Rfid_model.Types.epoch -> unit
(** Advance one epoch {e without} a usable location fix (missing or
    rejected by the ingest guard): reader particles move by the motion
    model with proposal noise inflated by
    {!Config.degraded_noise_scale}. [shelf_tags] (default [[]], expected
    deduplicated and ascending) lists shelf tags read during the
    outage; their exactly-known positions re-weight the reader
    particles, localizing the dead-reckoned belief. With none, weights
    are unchanged. After [config.degraded_widen_after] consecutive
    dead-reckoned epochs, object beliefs additionally diffuse by
    {!Config.degraded_widen_sigma} per epoch (particle clouds are
    jittered and clamped to shelves; compressed Gaussians inflate their
    XY covariance). Deterministic: per-object randomness is keyed by
    (object id, epoch) as in {!step}.
    @raise Invalid_argument if [epoch] is not beyond the current one. *)

val degraded_epochs : t -> int
(** Total dead-reckoned epochs so far. *)

(** {1 Checkpointing} *)

(** Complete dynamic filter state as plain data: RNG states, reader
    particles, per-object beliefs, the spatial index's entries, and the
    compression queue. The representation is public so
    [Rfid_robust.Codec] can serialize it field by field into the
    portable checkpoint format; treat it as read-only elsewhere. Field
    and constructor order are part of the legacy (v1, Marshal)
    checkpoint format — do not add, remove or reorder without bumping
    it. *)

type belief_snapshot =
  | Snap_active of (Rfid_geom.Vec3.t * int * float) array
      (** particle (location, reader index, log weight) rows *)
  | Snap_compressed of float array * Rfid_prob.Linalg.mat  (** mean, cov *)

type obj_snapshot = {
  so_id : int;
  so_belief : belief_snapshot;
  so_reader_gen : int;
  so_last_read : int;
  so_last_read_reader : Rfid_geom.Vec3.t;
}

type index_snapshot = {
  si_entries : (Rfid_geom.Box2.t * int list) list;
  si_pending_objs : int list;
  si_pending_box : Rfid_geom.Box2.t option;
  si_last_insert_loc : Rfid_geom.Vec3.t option;
}

type snapshot = {
  fs_rng : int64;
  fs_substream : int64;
  fs_reader_gen : int;
  fs_readers : (Rfid_model.Reader_state.t * float) array;
  fs_objects : obj_snapshot list;  (** sorted by id *)
  fs_index : index_snapshot option;
  fs_compress_queue : (int * int) list;
  fs_last_reported : Rfid_geom.Vec3.t option;
  fs_epoch : int;
  fs_newly_seen : int list;
  fs_processed_last : int;
  fs_consecutive_degraded : int;
  fs_degraded_total : int;
}

val snapshot : t -> snapshot
(** Deep copy of the dynamic state; the filter can keep running. *)

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
    to the original's.
    @raise Invalid_argument if [config.variant] disagrees with the
    snapshot (e.g. an indexed snapshot restored as plain
    [Factorized]). *)

(** {1 Introspection (tests, benches)} *)

val objects_processed_last_step : t -> int
(** How many objects the last {!step} actually touched — the quantity
    the spatial index is designed to shrink. *)

val is_compressed : t -> int -> bool
(** Whether the object's belief currently lives in compressed (Gaussian)
    form. *)

val num_index_boxes : t -> int
(** Sensing-region boxes currently held by the spatial index (0 without
    an index). *)

val iter_reader_particles :
  t -> (Rfid_model.Reader_state.t -> float -> unit) -> unit
(** Visit every reader particle with its normalized weight — the E-step
    of EM calibration and white-box tests read the posterior this
    way. *)

val iter_object_particles :
  t ->
  int ->
  (Rfid_geom.Vec3.t -> float -> Rfid_model.Reader_state.t -> unit) ->
  unit
(** Visit an object's particles as (location, normalized weight,
    associated reader hypothesis). No-op for unknown or compressed
    objects. *)
