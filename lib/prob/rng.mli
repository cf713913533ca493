(** Deterministic pseudo-random number generation.

    Every stochastic component of the system threads an explicit [Rng.t]
    so that traces, calibration runs and experiments are reproducible
    from a seed. The generator is SplitMix64 (Steele et al., OOPSLA
    2014): a 64-bit state advanced by a Weyl sequence and finalized by a
    variant of the MurmurHash3 mixer. It is fast, passes BigCrush when
    used as here, and — unlike [Stdlib.Random] — has a trivially
    splittable, copyable state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Two generators
    with the same seed produce identical streams. *)

val state : t -> int64
(** The raw 64-bit generator state. Together with {!of_state} this
    makes a generator checkpointable: restoring the state restores the
    exact remaining stream. *)

val of_state : int64 -> t
(** A generator whose next outputs continue the stream of the generator
    whose {!state} was captured. *)

val split : t -> t
(** [split t] advances [t] and derives a new generator whose stream is
    (statistically) independent of the remainder of [t]'s stream. Use to
    hand sub-components their own generator. *)

val for_key_into : t -> key:int64 -> t -> unit
(** [for_key_into t ~key dst] derives the [key]-th substream of [t]
    into [dst] {e without advancing [t]}: a pure function of [t]'s
    current state and [key]. Derivations therefore commute — any number
    of substreams can be drawn in any order and each key always yields
    the same generator. The factored filter keys per-object randomness
    by [key_pair obj_id epoch], so an object's draws do not depend on
    which objects were updated before it, and a restored checkpoint
    continues every object's stream exactly. Writing into [dst] instead
    of allocating lets the hot paths re-key one scratch generator per
    object per epoch. *)

val key_pair : int -> int -> int64
(** [key_pair a b] packs two non-negative ints into one substream key;
    distinct pairs with realistic magnitudes (ids, epochs) yield
    distinct, well-separated keys. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform float in [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [clamp 0 1 p]. *)

val gaussian : t -> ?sigma:float -> unit -> float
(** Zero-mean normal deviate via the Marsaglia polar method, with
    standard deviation [sigma] (default 1). Requires [sigma >= 0.]. *)

val categorical : t -> float array -> int
(** [categorical t w] draws an index proportionally to the non-negative
    weights [w] (not necessarily normalized).
    @raise Invalid_argument if [w] is empty or sums to 0. *)
