(** Structure-of-arrays particle storage.

    A store holds [n] particles as parallel unboxed slabs — [floatarray]
    columns for x/y/z and log weight plus a flat [int array] of reader
    indices — instead of an array of boxed records. The filter hot
    paths (weighting, normalization, resampling) run over these slabs
    with zero steady-state allocation: stores are created once per
    object (or filter), then {!resize}d, {!gather}ed and {!swap}ped in
    place.

    Every routine that replaces an array-of-records loop from the
    filters performs bit-identical floating-point arithmetic in the
    identical order, so adopting the store changes the allocation
    profile of a filter and nothing about its output. *)

type t

val create : n:int -> t
(** Store of [n] particles, all fields zero. [n = 0] is legal (the
    placeholder belief of a just-discovered object).
    @raise Invalid_argument on negative [n]. *)

val length : t -> int
(** Live particle count [n]. *)

val resize : t -> int -> unit
(** Set the live count, reallocating slabs only when the capacity is
    exceeded. Slab contents are unspecified after a growing resize —
    callers fill [0, n) before reading. *)

val resize_up :
  t ->
  n:int ->
  rng:Rng.t ->
  sigma_x:float ->
  sigma_y:float ->
  sigma_z:float ->
  unit
(** Grow the live count from [k = length] to [n]: new particle [k + i]
    is a copy of particle [i mod k] (cyclic replication, log weight and
    reader pointer included) jittered per axis by [sigma_* * gaussian].
    Exactly three deviates are drawn per new particle (x, y, z order)
    from [rng], so the result is a pure function of the generator state
    — the filters pass per-(object, epoch) keyed substreams, keeping
    growth independent of where the object sits in the pass.
    @raise Invalid_argument on an empty store or [n < length]. *)

val swap : t -> t -> unit
(** Exchange the entire contents (counts and slabs) of two stores in
    O(1) — the second half of a resample {!gather} into a scratch
    slab. *)

(** {1 Element access}

    All checked accessors validate the index against [length].
    @raise Invalid_argument on an index outside [0, length). *)

val x : t -> int -> float
(** X coordinate of particle [i]. *)

val y : t -> int -> float
(** Y coordinate of particle [i]. *)

val z : t -> int -> float
(** Z coordinate of particle [i]. *)

val log_w : t -> int -> float
(** Unnormalized log weight of particle [i]. *)

val reader : t -> int -> int
(** Reader-particle pointer of particle [i] — the index of the reader
    hypothesis this object particle is conditioned on (section IV-B's
    factorization). *)

val set_loc : t -> int -> x:float -> y:float -> z:float -> unit
(** Overwrite the location of particle [i] (all three coordinates in
    one call — one bounds check, no intermediate vector). *)

val set_log_w : t -> int -> float -> unit
(** Overwrite the log weight of particle [i]. *)

val set_reader : t -> int -> int -> unit
(** Re-point particle [i] at another reader hypothesis. *)

val unsafe_x : t -> int -> float
(** Unchecked accessors for inner loops whose bounds were already
    validated; indexing past [length] is undefined behaviour. *)

val unsafe_y : t -> int -> float
(** As {!unsafe_x} for the Y column. *)

val unsafe_z : t -> int -> float
(** As {!unsafe_x} for the Z column. *)

(** {1 Weight operations (in place)} *)

val max_log_w : t -> float
(** Running [Float.max] over the log weights; [neg_infinity] when
    empty. *)

val shift_log_w : t -> float -> unit
(** Subtract a constant from every log weight (centring). *)

val weights_into : t -> float array -> unit
(** Write the normalized linear weights of the current log weights into
    a caller buffer of length exactly [length t] — the zero-allocation
    replacement for materializing a log-weight array and normalizing a
    copy. @raise Invalid_argument on length mismatch. *)

val normalized_weights : t -> float array
(** Allocating variant of {!weights_into} for cold paths. *)

(** {1 Resampling and moments} *)

val gather : src:t -> dst:t -> int array -> n:int -> unit
(** [gather ~src ~dst idx ~n] resizes [dst] to [n] and sets
    [dst.(i) <- src.(idx.(i))] with log weight 0 — rebuilding a
    particle set from resampled source indices without allocating.
    @raise Invalid_argument if [src == dst], the index buffer is
    shorter than [n], or an index is out of range. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy a contiguous range of particles (every column) between stores
    — row-wise resampling for callers that pack a matrix of particles
    into one slab. Overlapping self-blit behaves like [Array.blit].
    @raise Invalid_argument if either range exceeds its store's
    length. *)

val backing : t -> floatarray * floatarray * floatarray * floatarray * int array
(** The live slabs (xs, ys, zs, log weights, reader indices), for
    batched consumers that loop over the whole store in one call —
    avoiding a boxing call per particle. Indices [< length t] are
    valid; {!resize} and {!swap} invalidate the returned arrays. *)

val fit_gaussian : w:float array -> t -> Gaussian.t
(** Moment-matched 3-D Gaussian of the weighted cloud, bit-identical to
    fitting over per-particle [[|x; y; z|]] rows.
    @raise Invalid_argument on an empty store or weight length
    mismatch. *)


