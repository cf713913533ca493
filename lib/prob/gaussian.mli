(** Univariate and low-dimensional multivariate Gaussians.

    The multivariate form is the compressed belief representation of
    §IV-D: a weighted particle cloud for an object location is collapsed
    into its moment-matched Gaussian (the KL-optimal choice), stored,
    and later decompressed by sampling. *)

(** {1 Univariate} *)

module Univariate : sig
  type t = { mu : float; sigma : float }

  val create : mu:float -> sigma:float -> t
  (** @raise Invalid_argument if [sigma < 0]. *)

  val cdf : t -> float -> float
end

(** {1 Multivariate} *)

type t
(** A d-dimensional Gaussian with cached Cholesky factor and
    log-normalizer, so repeated [log_pdf]/[sample] calls are cheap. *)

val create : mean:float array -> cov:Linalg.mat -> t
(** @raise Invalid_argument if [cov] is not square of the mean's
    dimension or not positive (semi)definite. Semidefinite covariances
    are jittered (see {!Linalg.cholesky}). *)

val mean : t -> float array
val cov : t -> Linalg.mat

val log_pdf : t -> float array -> float
val sample : t -> Rng.t -> float array

val fit : ?w:float array -> float array array -> t
(** Moment-matched fit of points (rows) under normalized weights [w]
    (uniform if omitted). This is the KL(p-hat || q) minimizer over
    Gaussians q, i.e. exactly the belief-compression step of §IV-D.
    @raise Invalid_argument on empty data or ragged rows. *)

