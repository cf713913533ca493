(** Probabilistic queries over live posteriors (PROTOCOL.md §5).

    The query layer keeps a per-object cache of moment-matched
    Gaussian fits plus a dynamic spatial index
    ({!Rfid_geom.Dyn_index}) of their ±3.5σ boxes, and keeps
    both current {e incrementally}: before answering, it drains the
    engine's change feed ({!Rfid_core.Engine.iter_dirty_changes}) and
    recomputes only the flagged objects' fits, moving their index
    entries in place. Post-epoch maintenance is therefore O(objects
    that changed) — the sensing scope — rather than O(known objects),
    and a [RANGE]/[AT]/[NEAR] burst against an un-stepped engine does
    no fit work at all. Answers are byte-identical to a from-scratch
    rebuild: an unflagged object's particle store is untouched, and
    the fit is a deterministic function of the store.

    At 3.5σ the per-axis mass outside an index box is ≈ 2.3e-4, below
    the [min-mass] floor of 1e-3, so box pruning cannot drop a
    reportable [RANGE] answer. Probes are allocation-light, through
    reusable hit buffers.

    A fresh query layer rebuilds the whole cache on its first query
    (counted in [query.full_rebuilds]); a restored engine gets a fresh
    query layer.

    The module also keeps the bounded ring of emitted events that backs
    [EVENTS since-epoch] — bounded so a long-lived server does not
    accumulate the full event history in memory; evictions are counted,
    never silent. *)

type answer = {
  a_obj : int;
  a_mass : float;
      (** posterior probability that the object lies in the probe box:
          the product of the marginal Gaussian masses along x and y *)
  a_loc : Rfid_geom.Vec3.t;  (** posterior mean *)
  a_xyz : string;
      (** [a_loc] pre-rendered as ["x y z"] with {!Framing.float_str},
          cached in the fit record — reply formatting for a big [RANGE]
          is paid per refit, not per query *)
}

type near_answer = {
  n_obj : int;
  n_dist : float;  (** Euclidean XY distance from the query point to the mean *)
  n_loc : Rfid_geom.Vec3.t;  (** posterior mean *)
  n_xyz : string;  (** [n_loc] pre-rendered as ["x y z"], as in {!answer} *)
}

type t

val create : ?events_keep:int -> unit -> t
(** [events_keep] bounds the event ring (default 4096).
    @raise Invalid_argument if [events_keep < 1]. *)

val range :
  t ->
  engine:Rfid_core.Engine.t ->
  min_x:float ->
  min_y:float ->
  max_x:float ->
  max_y:float ->
  min_mass:float ->
  answer list
(** Objects whose posterior mass inside the XY box reaches [min_mass]
    (clamped to at least 0.001, which keeps the σ-box pruning sound),
    in ascending object id.
    @raise Invalid_argument if a min bound exceeds its max, or any
    bound or [min_mass] is not finite. *)

val at : t -> engine:Rfid_core.Engine.t -> int -> (Rfid_geom.Vec3.t * float) option
(** Posterior mean and sd_xy (√ of the mean XY variance) of one
    object, from the fit cache — repeated [AT] on an unchanged object
    does zero fit work (counted in [query.fit_cache_hits]). [None] for
    an unknown object. *)

val near :
  t ->
  engine:Rfid_core.Engine.t ->
  k:int ->
  x:float ->
  y:float ->
  near_answer list
(** The [k] known objects whose posterior means lie nearest (Euclidean
    XY) to [(x, y)], nearest first, ties by ascending object id; fewer
    than [k] when fewer objects are known. Found by expanding square
    probes of the dynamic index, so the cost tracks the local density,
    not the object count.
    @raise Invalid_argument if [k < 1] or a coordinate is not finite. *)

val fit_count : t -> int
(** Objects currently held by the fit cache (= index entries). *)

val record_event : t -> Rfid_core.Event.t -> unit
(** Append to the ring, evicting the oldest entry when full. *)

val events_since : t -> epoch:int -> Rfid_core.Event.t list
(** Retained events with [ev_epoch >= epoch], oldest first. *)

val events_seen : t -> int
(** Total events ever recorded (evicted ones included). *)

val events_dropped : t -> int
(** Events evicted from the ring so far — when nonzero, [EVENTS] with a
    small enough [since-epoch] is truncated history, and STATS says
    so. *)
