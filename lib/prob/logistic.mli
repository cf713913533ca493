(** Weighted logistic regression.

    This is the statistical engine behind the paper's parametric RFID
    sensor model (Eq. 1): the probability that a tag responds is the
    logistic of a polynomial in reader–tag distance and angle, and the
    coefficients are fitted from (possibly fractionally weighted)
    read/no-read outcomes during EM calibration (§III-C). *)

val sigmoid : float -> float
(** [1 / (1 + exp (-x))], stable for large |x|. *)

val log_sigmoid : float -> float
(** [log (sigmoid x)] without overflow: equals [-log1p (exp (-x))]. *)

val exp_underflow : float
(** A logit bound (-746) at which the complementary log-likelihood
    saturates {e exactly} in IEEE-754 double: for any
    [x <= exp_underflow], [log_sigmoid (-.x) = -0.0] bit for bit,
    because [exp x] underflows to +0.0 (which happens just below
    -745.134) and [-.log1p 0. = -0.0].
    Since [w +. -0.0] is a bitwise no-op for every [w] (including
    zeros of either sign), a log-likelihood term known to be this
    saturated may be skipped outright without perturbing the
    accumulator — the basis of the sensor kernel's saturation cull. *)

type model = { coef : float array }
(** Coefficients over a feature vector; [predict] and [fit] agree on the
    feature layout chosen by the caller. *)

val fit :
  ?l2:float ->
  ?init:float array ->
  ?nonpositive:int list ->
  x:float array array ->
  y:bool array ->
  ?w:float array ->
  dim:int ->
  unit ->
  model
(** Maximum-likelihood fit by Newton–Raphson (iteratively reweighted
    least squares) with L2 penalty [l2] (default 1e-4; the intercept is
    penalized too — harmless at this scale and it keeps the Hessian
    well-conditioned when classes separate). Steps are trust-region
    clamped to norm 10, and falls back to a damped gradient step if
    the Newton system is singular. [w] are per-example weights
    (default 1). [dim] is the feature-vector length.

    [nonpositive] lists coefficient indices constrained to be <= 0
    (projected after each step) — domain knowledge such as "read rate
    decays with distance" that guards against wild extrapolation where
    the data leaves a feature region unobserved.

    Terminates after 400 Newton steps or when the coefficient update's
    max-norm drops below 1e-8.
    @raise Invalid_argument on shape mismatches, empty data, or a
    constraint index out of range. *)
