(** Internals shared by the unfactorized and factorized filters:
    cached sensing-region geometry, sensor-model-based particle
    initialization (§IV-A), and the reader proposal distribution. *)

module Sensor_cache : sig
  type t = { range : float; half_angle : float }
  (** Detection range (head-on) and half-angle (at mid-range) of a
      sensor model at a given threshold — computed once, since the
      bisection behind them is too slow for per-particle use. *)

  val create : threshold:float -> max_range:float -> Rfid_model.Sensor_model.t -> t
end

val sample_initial_location :
  Sensor_cache.t ->
  overestimate:float ->
  world:Rfid_model.World.t ->
  reader_loc:Rfid_geom.Vec3.t ->
  heading:float ->
  Rfid_prob.Rng.t ->
  Rfid_geom.Vec3.t
(** Draw an object-location hypothesis for a just-detected tag: uniform
    over the initialization cone, clamped onto the shelf area. *)

val fill_fresh_particles :
  Sensor_cache.t ->
  overestimate:float ->
  world:Rfid_model.World.t ->
  pre:Rfid_model.Sensor_model.pre ->
  rw:float array ->
  rng:Rfid_prob.Rng.t ->
  store:Rfid_prob.Particle_store.t ->
  step:int ->
  unit
(** Batched {!sample_initial_location} straight into particle slabs:
    for every [step]-th index [i] of [store] (from 0), draw a reader
    pointer from the categorical weights [rw], then a location uniform
    over that reader's initialization cone — apex/heading taken from
    the sensor memo's pose slabs — clamped onto the shelves, and write
    location/pointer/zero log-weight to slot [i]. Identical draws in
    identical order to the per-particle scalar path, and identical
    stored floats, with no allocation per particle. [step] 1 fills the
    whole store (creation, far re-detection); 2 redraws the even half
    (near re-detection, §IV-A). The memo must hold the current reader
    poses. @raise Invalid_argument if [step <= 0]. *)

val propose_heading :
  Config.heading_model ->
  motion:Rfid_model.Motion_model.t ->
  epoch:Rfid_model.Types.epoch ->
  current:float ->
  Rfid_prob.Rng.t ->
  float
(** Next-heading proposal per the configured heading model. *)

val proposal_delta :
  Config.proposal ->
  motion:Rfid_model.Motion_model.t ->
  last_reported:Rfid_geom.Vec3.t option ->
  reported:Rfid_geom.Vec3.t ->
  Rfid_geom.Vec3.t
(** Mean displacement of the reader-location proposal for this epoch:
    the model's average velocity, or the reported displacement when
    configured (and available). *)

val proposal_sigma :
  Config.proposal ->
  motion:Rfid_model.Motion_model.t ->
  sensing:Rfid_model.Location_sensing.t ->
  Rfid_geom.Vec3.t
(** Per-axis noise of the reader proposal. With [From_velocity] this is
    the motion model's sigma. With [From_reported_displacement], the
    displacement is a {e control input} measured through the location
    sensor, so its noise is the motion noise plus the differenced report
    noise: sqrt(sigma_m^2 + 2 sigma_s^2) per axis. Using only sigma_m
    there would make the filter chase the report noise instead of
    smoothing it. *)

val jitter : Rfid_geom.Vec3.t -> sigma:Rfid_geom.Vec3.t -> Rfid_prob.Rng.t -> Rfid_geom.Vec3.t
(** Add independent per-axis Gaussian noise to a point. *)

val resample_into :
  Config.resample_scheme ->
  Rfid_prob.Rng.t ->
  float array ->
  n:int ->
  out:int array ->
  unit
(** {!resample} into a scratch buffer of length at least [n]: identical
    draws and indices, no allocation. *)
