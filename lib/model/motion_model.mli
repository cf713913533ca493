(** Reader motion model (§III-A): the reader moves with a roughly
    constant velocity, [R_t = R_{t-1} + delta + eps] with
    [eps ~ N(0, Sigma_m)] (diagonal). Heading evolves the same way with
    its own drift and noise. *)

type t = {
  velocity : Rfid_geom.Vec3.t;  (** average per-epoch displacement (delta) *)
  sigma : Rfid_geom.Vec3.t;  (** per-axis motion noise std-dev (sqrt of diag Sigma_m) *)
  heading_drift : float;  (** average per-epoch heading change, radians *)
  heading_sigma : float;  (** heading noise std-dev, radians *)
}

val default : t
(** 0.1 ft/epoch along +y (the paper's robot speed), sigma 0.01 per
    axis, steady heading with 0.01 rad noise. *)

val create :
  ?velocity:Rfid_geom.Vec3.t ->
  ?sigma:Rfid_geom.Vec3.t ->
  ?heading_drift:float ->
  ?heading_sigma:float ->
  unit ->
  t
(** Defaults as in {!default}. @raise Invalid_argument on negative
    sigmas. *)

val sample_next : t -> Rfid_prob.Rng.t -> Reader_state.t -> Reader_state.t
(** Draw R_t given R_{t-1}. *)

