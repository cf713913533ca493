(** Numerically careful statistics over weighted samples.

    Particle filters live and die by these primitives: weights are
    manipulated in log space until they must be normalized, and moments
    of weighted particle sets are the inference output. *)

val log_sum_exp : float array -> float
(** [log_sum_exp a] is [log (sum_i (exp a.(i)))] computed stably.
    Returns [neg_infinity] on the empty array. *)

val normalize_log_weights : float array -> float array
(** Convert log weights to normalized linear weights summing to 1.
    If every log weight is [neg_infinity] (total collapse), returns the
    uniform distribution — the standard particle-filter rescue. *)

val normalize_log_weights_in_place : float array -> unit
(** [normalize_log_weights] overwriting the input array — the filter
    hot path already materializes a fresh log-weight array per particle
    set per epoch, so normalizing in place halves its allocations. *)

val normalize_log_weights_into : src:float array -> dst:float array -> unit
(** [normalize_log_weights] writing into a caller buffer (a scratch
    arena slot in the filter hot path) instead of allocating; [src] is
    left untouched. @raise Invalid_argument on length mismatch. *)

val normalize : float array -> float array
(** Normalize non-negative linear weights to sum to 1; uniform on total
    collapse. *)

val effective_sample_size : float array -> float
(** Kish effective sample size [1 / sum w_i^2] of normalized weights.
    An ESS near the particle count means healthy diversity; near 1 means
    degeneracy. Returns 0 on the empty array. *)

val mean : float array -> float
(** Arithmetic mean; 0 on empty. *)

val variance : float array -> float
(** Population variance; 0 on empty. *)

