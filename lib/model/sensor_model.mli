(** The parametric RFID sensor model of §III-A (Eq. 1).

    The probability that a tag at distance [d] and angle [theta] from
    the reader responds in one interrogation round is the logistic of a
    polynomial:

    {v p(read | d, theta) = sigmoid(a0 + a1 d + a2 d^2 + b1 theta + b2 theta^2) v}

    (equivalently, the paper writes [p(read = 0)] as the complementary
    logistic). The decay coefficients are expected negative; they are
    real-valued parameters learned from data during calibration rather
    than hand-measured per deployment. The same model (same
    coefficients) serves object tags and shelf tags. *)

type t = {
  a0 : float;  (** intercept *)
  a1 : float;  (** distance, linear *)
  a2 : float;  (** distance, quadratic *)
  b1 : float;  (** angle, linear *)
  b2 : float;  (** angle, quadratic *)
}

val default : t
(** A plausible hand-set conical model (≈95% read rate at contact,
    decaying to ~50% around 3 ft head-on, narrower off-axis) used as an
    EM starting point and in quickstart examples. *)

val features : d:float -> theta:float -> float array
(** [[| 1; d; d^2; theta; theta^2 |]] with [theta] taken as its absolute
    value — the model is symmetric in angle. *)

val of_coef : float array -> t
(** @raise Invalid_argument unless length 5 ([a0 a1 a2 b1 b2]). *)

val to_coef : t -> float array

val read_prob_at : t -> d:float -> theta:float -> float
(** Read probability at a given distance (ft) and unsigned angle
    (radians). *)

val geometry :
  reader_loc:Rfid_geom.Vec3.t ->
  reader_heading:float ->
  tag_loc:Rfid_geom.Vec3.t ->
  float * float
(** [(d, theta)]: Euclidean 3-D distance and unsigned XY-plane angle
    between the reader's heading and the tag — the quantities Eq. 1 is
    evaluated at. *)

val read_prob :
  t -> reader_loc:Rfid_geom.Vec3.t -> reader_heading:float -> tag_loc:Rfid_geom.Vec3.t -> float

val log_prob :
  t ->
  reader_loc:Rfid_geom.Vec3.t ->
  reader_heading:float ->
  tag_loc:Rfid_geom.Vec3.t ->
  read:bool ->
  float
(** Log-likelihood of one sensing outcome — the factored particle weight
    of Eq. 5, computed stably in log space. *)

val saturation_radius : t -> float
(** The exact-saturation culling radius of the model: a distance [r]
    such that for {e any} computed distance [d > r] (up to 1e8, the
    kernels' no-overflow envelope) and any angle, the miss
    log-likelihood [log_prob ~read:false] evaluates to exactly [-0.0]
    in IEEE-754 double — the logit is provably at or below
    {!Rfid_prob.Logistic.exp_underflow}, where [exp] underflows to
    +0.0 and [-.log1p 0. = -0.0]. Skipping such a term is therefore a
    bitwise no-op on any accumulator, which is what lets the batched
    kernels cull saturated entries while staying byte-identical to
    the uncull ed evaluation.

    Derived in closed form as the larger root of
    [a2 d^2 + a1 d + (a0 + max_theta(b1 th + b2 th^2)
    - exp_underflow)]; requires [a2 < 0] (distance-decaying logit).
    Returns [0.] when the model saturates at every distance,
    [infinity] — culling disabled, kernels evaluate everything — when
    the closed form does not apply ([a2 >= 0], non-finite
    coefficients) or the coefficients are scaled so extremely that
    float-evaluation error near the radius could not be proven away.
    For the default model the radius is ~54 ft. *)

(** {1 Per-epoch pose memo}

    The filter hot paths evaluate [log_prob] once per (object particle,
    epoch) against the pose of the reader particle the object particle
    is conditioned on. A [pre] memoizes those poses — x/y/z/heading in
    flat unboxed [floatarray] slabs, one slot per reader particle —
    refreshed once per epoch, so the inner loop reads four floats by
    index and allocates nothing. [log_prob_pre] is bit-identical to
    [log_prob] at the memoized pose. *)

type pre

val precompute : t -> n:int -> pre
(** Memo with [n] pose slots (initially all zero) for this model.
    @raise Invalid_argument on negative [n]. *)

val pre_size : pre -> int
(** Current number of pose slots. *)

val pre_resize : pre -> int -> unit
(** Set the slot count, reallocating slabs only on growth; slot
    contents are unspecified after a growing resize. *)

val pre_set_pose_checked :
  pre -> int -> x:float -> y:float -> z:float -> heading:float -> bool
(** Fill one pose slot, unless the new pose is identical to the slot's
    current contents: then skip the write and return [false]. The comparison
    is zero-sign-exact — a [-0.0] replacing a [+0.0] counts as a change,
    because the kernel arithmetic ([atan2], subtraction) distinguishes them
    — and a NaN component always counts as changed. A filter refreshing its
    memo through this entry point can detect a fully unchanged epoch (every
    call returned [false]) and count it as a memo reuse.
    @raise Invalid_argument out of range. *)

val log_prob_pre : pre -> int -> tx:float -> ty:float -> tz:float -> read:bool -> float
(** [log_prob_pre p i ~tx ~ty ~tz ~read] is
    [log_prob m ~reader_loc ~reader_heading ~tag_loc:(tx,ty,tz) ~read]
    for the pose in slot [i], bit for bit.
    @raise Invalid_argument out of range. *)

val pre_accumulate_store : pre -> Rfid_prob.Particle_store.t -> read:bool -> int
(** Add the sensor term to every particle's log weight in one pass:
    for each particle, [log_prob_pre] at its reader-pointer slot
    against its own location. One cross-module call per (object,
    epoch) — the loop runs over the store's backing slabs with no
    boxing, where a call per particle would allocate ~30 words each.
    Bit-identical to the per-particle calls, {e including} for the
    particles it culls: a miss term at squared distance beyond the
    model's {!saturation_radius} is exactly [-0.0], so the kernel
    skips its transcendental evaluation outright (the accumulate
    would be a bitwise no-op) and reports the number of entries so
    skipped as its return value. Read terms are never culled (they
    saturate to the non-constant logit, not to [-0.0]).
    @raise Invalid_argument if a reader index exceeds the pose set. *)

val pre_accumulate_tag :
  pre ->
  tx:float ->
  ty:float ->
  tz:float ->
  read:bool ->
  miss_weight:float ->
  float array ->
  int
(** Add one tag's sensor term against {e every} pose to a per-pose
    accumulator: [acc.(r) <- acc.(r) +. l] where [l] is
    [log_prob_pre r] scaled by [miss_weight] when [not read] (pass
    [1.0] for unscaled terms). Returns the number of poses culled by
    exact saturation (see {!pre_accumulate_store}); the cull is
    additionally disabled unless [miss_weight] is positive or [+0.0],
    since only then is the scaled term still exactly [-0.0].
    @raise Invalid_argument if the accumulator is shorter than the
    pose set. *)

val pre_accumulate_joint_obj :
  pre ->
  Rfid_prob.Particle_store.t ->
  obj:int ->
  num_objects:int ->
  read:bool ->
  float array ->
  int
(** Joint-filter variant of {!pre_accumulate_tag}: pose [r]'s tag
    location is row [r]'s entry for [obj] in a row-major
    [poses * num_objects] slab, and the (unscaled) term accumulates
    into [acc.(r)]. Returns the saturation-culled pose count (see
    {!pre_accumulate_store}). @raise Invalid_argument on shape
    mismatch. *)

val pre_poses : pre -> floatarray * floatarray * floatarray * floatarray
(** The memo's backing pose slabs [(x, y, z, heading)], for batched
    loops owned by other modules (e.g. the reader-location likelihood
    over every pose, or the batched initialization sampler). Slots at
    indices [>= pre_size] are unspecified; {!pre_resize} invalidates
    the returned arrays. *)

val detection_range : ?threshold:float -> t -> float
(** Head-on distance at which the read probability falls below
    [threshold] (default 0.02): the radius used for sensing-region
    bounding boxes and the initialization cone. Found by bisection on
    [0, 100] ft; returns 100 if the probability never falls below the
    threshold (pathological coefficients). *)

val detection_half_angle : ?threshold:float -> t -> d:float -> float
(** Unsigned angle at which the read probability at distance [d] falls
    below [threshold] (default 0.02); [pi] when it never does. *)

val pp : Format.formatter -> t -> unit
