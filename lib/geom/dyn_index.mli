(** A dynamic spatial index over XY bounding boxes with stable entry
    handles — the repo's one spatial index.

    §IV-C of the paper prunes each epoch's work with "a standard spatial
    index (a simplified R*-tree)"; this uniform grid plays that role for the
    factored filter's sensing-region and shelf-tag indexes, which only
    insert and probe, and for the serving layer's query index, where each
    tracked object owns one box that {e moves} whenever its posterior
    changes, so entries are updated in place. An entry's box is registered
    in every grid cell it overlaps, an update moves it between those cells,
    and a probe visits only the cells it covers. The cell size self-tunes to
    twice the mean box extent (rehashing all entries when the population
    drifts more than 4x away), so occupancy stays O(1) per cell without the
    caller knowing the world scale. Any finite coordinate is accepted: cells
    far out are clamped to the grid's edge, which keeps every answer exact.

    Handles are small ints, handed out in insertion order (from 0 again
    after a {!clear}); each [insert] returns the handle to later [update]
    that entry. Queries fill reusable {!Hits} buffers, and a steady-state
    {!query_into} allocates nothing. Entries whose box spans more than 64
    cells are kept on an oversize list probed by every query instead of
    bloating thousands of buckets. Hit order is unspecified (grid visit
    order); callers consume hits as sets or sort them. *)

(** Reusable hit buffers for {!query_into}: a growable array that keeps
    its storage across queries, so per-epoch probes build no lists. *)
module Hits : sig
  type 'a t

  val create : dummy:'a -> 'a t
  (** [dummy] fills unused capacity (and cleared slots, so stale hits
      are not pinned for the GC). *)

  val length : 'a t -> int
  (** Hits appended since the last {!clear}. *)

  val get : 'a t -> int -> 'a
  (** @raise Invalid_argument outside [0, length). *)

  val clear : 'a t -> unit
  (** Empty the buffer, overwriting cleared slots with [dummy];
      capacity is retained. *)

  val push : 'a t -> 'a -> unit
  (** Append a hit, growing the backing array as needed. *)
end

type 'a t

val create : dummy:'a -> unit -> 'a t
(** Empty index. [dummy] fills unused entry slots so cleared values
    are not pinned for the GC. *)

val insert : 'a t -> Box2.t -> 'a -> int
(** Register a value under its box; returns the entry's handle. *)

val update : 'a t -> int -> Box2.t -> 'a -> unit
(** [update t h box v] moves entry [h] to a new box (and value) in
    place — the delete/re-insert pair without handle churn.
    @raise Invalid_argument on a dead or out-of-range handle. *)

val size : 'a t -> int
(** Number of live entries. *)

val query_into : 'a t -> Box2.t -> 'a Hits.t -> unit
(** [query_into t probe hits] clears [hits] and appends every live
    value whose box intersects [probe], each exactly once, in
    unspecified order. Allocation-free once [hits] has grown to the
    working size. A probe covering vastly more cells than there are
    entries degrades gracefully to a full scan. *)

val iter : 'a t -> (int -> Box2.t -> 'a -> unit) -> unit
(** Visit every live entry as (handle, box, value), in ascending
    handle order. *)

val clear : 'a t -> unit
(** Drop every entry; handles become invalid, capacity is retained. *)

val cell_size : 'a t -> float
(** Current grid cell size — exposed for tests of the self-tuning. *)
