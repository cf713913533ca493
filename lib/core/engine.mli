(** The streaming inference engine: consumes synchronized observations
    and produces the clean location-event stream (§II-A's output).

    [Engine] wraps the factorized filter ([Factored_filter], in the
    flavour {!Config.variant} selects) and adds the report policy
    ({!Report_queue}): the paper's systems emit an event for an object
    a fixed delay after it enters the reader's scope during the current
    scan ("within x seconds after an object was read"), so downstream
    queries see one stable location per object per encounter instead of
    a fluctuating estimate. [flush] emits events for encounters still
    pending at stream end (e.g. "upon completion of a full area scan").
    The basic joint filter of §IV-A is not served; it runs only as the
    scalability baseline and Eq. 5 reference, through
    [Rfid_eval.Runner.run_joint].

    The engine consumes one strictly increasing epoch sequence.
    Real streams duplicate and reorder epochs; [Rfid_robust.Ingest]
    is the one place that decides what happens to those (drop, re-time
    or halt), so every stream that can carry a bad epoch goes through
    it, and the engine only checks the contract. {!step_degraded}
    takes epochs whose location fix was rejected upstream — the filter
    dead-reckons through them and the resulting events carry a
    [degraded] flag. {!snapshot}/{!restore} serialize the complete
    engine state for checkpoint/resume (see [Rfid_robust.Checkpoint]);
    a restored engine's future event stream is bit-identical to the
    uninterrupted run's. *)

type t

type stats = {
  degraded_epochs : int;  (** epochs processed by {!step_degraded} *)
  degraded_events : int;  (** events emitted with the degraded flag *)
}

val create :
  world:Rfid_model.World.t ->
  params:Rfid_model.Params.t ->
  config:Config.t ->
  init_reader:Rfid_model.Reader_state.t ->
  ?seed:int ->
  unit ->
  t
(** [seed] (default 0) makes the engine deterministic. Objects are
    discovered from the stream; nothing about them is declared. *)

val step : t -> Rfid_model.Types.observation -> Event.t list
(** Feed one epoch; returns the events whose report delay expired at
    this epoch.
    @raise Invalid_argument if the observation's epoch is not beyond
    the current one; the journal hook (see {!set_journal}) is not
    called and the engine is unchanged. *)

val step_degraded :
  ?tags:Rfid_model.Types.tag list -> t -> epoch:Rfid_model.Types.epoch -> Event.t list
(** Advance one epoch with {e no usable location fix} — it was missing
    or rejected by the ingest guard. The underlying filter dead-reckons
    (see [Factored_filter.dead_reckon]); reports falling due during the
    outage are still emitted, flagged degraded. [tags] (default [[]])
    carries the epoch's tag readings, which survived validation even
    though the fix did not: shelf tags among them localize the
    dead-reckoned reader belief (their positions are known exactly),
    while object tags are ignored — without a trusted fix there is no
    proposal to weight object hypotheses against.
    @raise Invalid_argument as {!step} does. *)

val run : t -> Rfid_model.Types.observation list -> Event.t list
(** [step] over a whole stream, then {!flush}; returns all events in
    emission order. *)

val flush : t -> Event.t list
(** Emit events for all pending encounters (end-of-scan policy). Events
    are flagged degraded when the engine is mid-outage. *)

val estimate : t -> int -> (Rfid_geom.Vec3.t * Rfid_prob.Linalg.mat) option
(** Current posterior mean/covariance of an object's location. *)

val iter_estimates :
  t -> (int -> Rfid_geom.Vec3.t -> Rfid_prob.Linalg.mat -> unit) -> unit
(** Visit every known object that has a posterior estimate, in
    ascending object-id order, with its current mean and covariance —
    the query layer ([Rfid_serve.Query]) builds its spatial index of
    posterior bounding boxes through this without materializing an
    intermediate list per object. List- and sort-free: the filter
    keeps its known set in sorted form. *)

val num_known : t -> int
(** Number of known objects, O(1). *)

(** {1 Change feed}

    The filter records which objects' posteriors may have changed
    since the consumer's last {!clear_changes}: each step's processed
    scope, belief compressions, and — through {!changes_dirty_all} —
    degraded-mode widening and {!restore}, which touch everything.
    Conservative but complete:
    an id the feed does not flag has a bitwise-unchanged estimate.
    Single consumer — in the serving stack, [Rfid_serve.Query]. *)

val changes_dirty_all : t -> bool
(** Every object must be treated as changed. *)

val iter_dirty_changes : t -> (int -> unit) -> unit
(** Changed ids, ascending; yields nothing while {!changes_dirty_all}
    holds — check it first. *)

val clear_changes : t -> unit
(** Consume the feed (empty the dirty set, lower the flag). *)

val reader_estimate : t -> Rfid_geom.Vec3.t
(** Weighted posterior mean of the reader's location. *)

val epoch : t -> Rfid_model.Types.epoch
(** Epoch of the last admitted observation (-1 for a fresh engine). *)

val objects_processed_last_step : t -> int
(** Objects touched by the last step (the index narrows this to the
    reader's neighbourhood). *)

val config : t -> Config.t
(** The configuration the engine was created with. *)

val stats : t -> stats
(** Degraded-mode counters accumulated since creation (or restore). *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering of {!stats}, as the CLI summaries print it. *)

(** {1 Write-ahead journaling} *)

(** One admitted epoch, as the engine consumed it — exactly what a
    write-ahead log must persist to replay the epoch later:
    [Journal_step] the (possibly guard-repaired) observation,
    [Journal_degraded] the epoch and surviving tag readings of a
    degraded step. *)
type journal_entry =
  | Journal_step of Rfid_model.Types.observation
  | Journal_degraded of Rfid_model.Types.epoch * Rfid_model.Types.tag list

val set_journal : t -> (journal_entry -> unit) option -> unit
(** Install (or clear) the write-ahead hook. When set, {!step} and
    {!step_degraded} call it with the epoch's entry {e after} the epoch
    check but {e before} any state changes, so a journal flushed at
    entry granularity always covers at least as much as any state the
    engine exposed. An epoch that fails the check is not journaled. *)

(** {1 Checkpointing} *)

(** Complete dynamic engine state — filter state (RNG streams, reader
    and object particles, spatial index, compression queue), pending
    report queue, and degraded-mode counters — as plain data. The
    representation is public so [Rfid_robust.Codec] can serialize it
    field by field; treat it as read-only elsewhere. Adding or
    removing a field changes that format: bump the codec's format
    version with it. *)
type snapshot = {
  es_filter : Factored_filter.snapshot;
  es_pending : (int * int) list;  (** (due epoch, object) report queue *)
  es_scheduled : int list;  (** objects with a pending report, ascending *)
  es_degraded_run : int;
  es_degraded_event_count : int;
}

val snapshot : t -> snapshot
(** Deep copy of the engine's state; the engine can keep running. *)

val snapshot_epoch : snapshot -> int
(** Epoch at which the snapshot was taken (-1 for a fresh engine). *)

val restore :
  world:Rfid_model.World.t ->
  params:Rfid_model.Params.t ->
  config:Config.t ->
  snapshot ->
  t
(** Rebuild an engine from a snapshot plus the same static inputs it
    was created with. Feeding the restored engine the remaining
    observations yields exactly the events the uninterrupted run would
    have produced, for every variant.
    @raise Invalid_argument if [config.variant] disagrees with the
    snapshot on the spatial index. *)
