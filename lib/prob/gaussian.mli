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

  val pdf : t -> float -> float
  val log_pdf : t -> float -> float
  val cdf : t -> float -> float

  val fit : ?w:float array -> float array -> t
  (** Moment-matched (maximum likelihood) fit; [w] are normalized
      weights, uniform if omitted. @raise Invalid_argument on empty
      data. *)
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
val pdf : t -> float array -> float
val sample : t -> Rng.t -> float array

val fit : ?w:float array -> float array array -> t
(** Moment-matched fit of points (rows) under normalized weights [w]
    (uniform if omitted). This is the KL(p-hat || q) minimizer over
    Gaussians q, i.e. exactly the belief-compression step of §IV-D.
    @raise Invalid_argument on empty data or ragged rows. *)

val avg_nll : ?w:float array -> t -> float array array -> float
(** Weighted average negative log-likelihood of points under [t]: the
    compression-loss score used to rank objects for compression (a
    monotone surrogate of the discrete-to-continuous KL divergence the
    paper describes). Lower means the cloud is more Gaussian. *)

val mahalanobis_sq : t -> float array -> float
(** Squared Mahalanobis distance of a point from the mean. *)

val confidence_ellipse_xy : t -> level:float -> float * float * float
(** [(semi_major, semi_minor, angle)] of the confidence ellipse of the
    first two dimensions at the given coverage level (e.g. 0.95): the
    eigen-decomposition of the XY covariance scaled by the chi-square
    quantile with two degrees of freedom, [r^2 = -2 ln (1 - level)].
    [angle] is the major axis' direction in radians.
    @raise Invalid_argument unless the distribution has >= 2 dimensions
    and [0 < level < 1]. *)
