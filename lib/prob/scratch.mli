(** Scratch arena for the filter hot paths.

    A scratch arena owns the reusable working memory a filter needs to
    process one work item (one object, one particle set):
    normalized-weight buffers, resample index buffers, a double-buffer
    particle slab for gather-and-swap resampling, and a re-keyable RNG.
    Buffers are handed out by (slot, length) and cached forever, so
    after the first epoch touches every length in play, the
    steady-state allocation of a filter step is zero.

    Each filter owns one arena. Contents are transient — valid only
    between a fill and the reads of the same work item; nothing is
    preserved across items or epochs. *)

type t

val create : unit -> t
(** A fresh arena with no cached buffers. *)

val float_buf : t -> slot:int -> int -> float array
(** [float_buf t ~slot n] is a float buffer of exactly length [n],
    cached per (slot, length). Distinct slots (0–3) never alias, so a
    caller needing two same-length buffers at once takes them from
    different slots. Contents are whatever the previous use left.
    @raise Invalid_argument on a slot outside [0, 4). *)

val int_buf : t -> slot:int -> int -> int array
(** As {!float_buf} for int buffers (resample indices); slots 0–1. *)

val bits : t -> slot:int -> Bitset.t
(** [bits t ~slot] is the arena's cached {!Bitset} for [slot] (0–3),
    created empty on first use and reused forever after. Unlike the
    length-keyed buffers a bitset grows in place, so one per slot
    suffices. Contents are whatever the previous use left — callers
    [Bitset.clear] before filling. @raise Invalid_argument on a slot
    outside [0, 4). *)

val slab : t -> Particle_store.t
(** The arena's spare particle slab: gather a resampled particle set
    into it, then [Particle_store.swap] it with the live store. *)

val rng : t -> Rng.t
(** A reusable generator for {!Rng.for_key_into}; state is meaningless
    until re-keyed. *)

val allocations : t -> int
(** Number of buffers ever allocated by this arena — a steady-state hot
    path stops increasing it after warm-up (asserted by the tests). *)
