(** Resampling schemes for particle filters (§IV-A step 2, "reproduce
    the highest-weight" particles).

    All schemes take normalized weights and return an array of source
    indices; the caller materializes the new particle set by indexing.
    Systematic resampling is the default throughout the library: it has
    the lowest Monte-Carlo variance of the simple schemes and costs one
    uniform draw per resampling event. *)

val systematic : Rng.t -> float array -> n:int -> int array
(** Single uniform offset, [n] evenly spaced points through the
    cumulative weights. Deterministic given the offset; indices come out
    sorted. *)

(** {1 In-place schemes}

    Written into a caller buffer (of length at least [n]) — the filter
    hot paths resample into scratch-arena buffers with zero
    steady-state allocation. [systematic_into] consumes the RNG and
    returns indices exactly as {!systematic} does.
    @raise Invalid_argument if the buffer is shorter than [n]. *)

val multinomial_into : Rng.t -> float array -> n:int -> out:int array -> unit
(** [n] i.i.d. draws from the categorical distribution of the weights. *)

val systematic_into : Rng.t -> float array -> n:int -> out:int array -> unit

val residual_into : Rng.t -> float array -> n:int -> out:int array -> unit
(** Deterministic copies of [floor (n * w_i)] per particle, multinomial
    on the remainder. *)
