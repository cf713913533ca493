(** Reader location sensing model (§III-A): the positioning system
    (indoor GPS, ultrasound, dead reckoning) reports
    [R-hat_t = R_t + mu_s + noise] with Gaussian noise of std-dev
    [sigma] per axis. The systematic bias [mu_s] captures phenomena like
    a robot drifting sideways from inertia while dead reckoning keeps
    counting wheel revolutions. Only position is observed — heading is
    not. *)

type t = {
  bias : Rfid_geom.Vec3.t;  (** mu_s, systematic error *)
  sigma : Rfid_geom.Vec3.t;  (** per-axis noise std-dev *)
}

val create : ?bias:Rfid_geom.Vec3.t -> ?sigma:Rfid_geom.Vec3.t -> unit -> t
(** Defaults: zero bias, sigma 0.01 per axis (the paper's defaults).
    @raise Invalid_argument on negative sigmas. *)

val default : t

val sample_report : t -> Rfid_prob.Rng.t -> Rfid_geom.Vec3.t -> Rfid_geom.Vec3.t
(** Draw the reported location given the true one. *)

val log_pdf_poses_into :
  t ->
  reported:Rfid_geom.Vec3.t ->
  rx:floatarray ->
  ry:floatarray ->
  rz:floatarray ->
  n:int ->
  float array ->
  unit
(** [log_pdf_poses_into t ~reported ~rx ~ry ~rz ~n out] writes to
    [out.(i)], for [i < n], the log-likelihood of the report given the
    true location [(rx.(i), ry.(i), rz.(i))] — the [p(R-hat|R)] factor
    of the reader-particle weight (Eq. 5) — in one batched pass over
    pose slabs (as returned by {!Rfid_model.Sensor_model.pre_poses}).
    An axis whose sigma is 0 is treated as unobserved and contributes
    nothing (a 2-D positioning system does not measure z).
    @raise Invalid_argument if [out] is shorter than [n]. *)

