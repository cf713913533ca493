(** Scripted trace generation: drive a robot-mounted reader along a
    path through a world and record ground truth plus the two noisy
    streams (§V-A's simulator).

    The robot follows a nominal script of constant-velocity segments
    with per-epoch Gaussian jitter (and optionally a systematic velocity
    bias — a robot drifting sideways from inertia). Reported locations
    come from either a Gaussian positioning model or dead reckoning
    (reporting the nominal scripted position, so the accumulated true
    drift goes unreported — §V-C's robot). *)

type segment = { velocity : Rfid_geom.Vec3.t; heading : float; seg_epochs : int }
(** Constant nominal velocity and reader heading for [seg_epochs]
    epochs. *)

type movement = { move_epoch : int; move_obj : int; move_to : Rfid_geom.Vec3.t }
(** Scripted relocation of one object at the start of an epoch. *)

type location_noise =
  | Gaussian_report of Rfid_model.Location_sensing.t
      (** report = true location + bias + Gaussian noise *)
  | Dead_reckoning
      (** report = nominal scripted position; the true position drifts
          away from it via jitter and velocity bias *)

type config = {
  sensor : Truth_sensor.t;
  motion_sigma : Rfid_geom.Vec3.t;  (** per-epoch jitter of the true motion *)
  velocity_bias : Rfid_geom.Vec3.t;  (** systematic offset of true motion vs script *)
  drift_cap : float option;  (** clamp |true - nominal| to this radius *)
  location_noise : location_noise;
  read_every : int;  (** interrogate tags every k epochs (location reports every epoch) *)
  movements : movement list;
}

val default_config : ?sensor:Truth_sensor.t -> unit -> config
(** Paper defaults: cone sensor at 100% major read rate, motion jitter
    0.01 ft, no velocity bias, Gaussian reports with zero bias and 0.01
    ft noise, readings every epoch, no movements. *)

val straight_pass : ?speed:float -> Warehouse.t -> rounds:int -> segment list
(** Scan passes along the warehouse aisle: down the full y extent (plus
    1 ft of run-in and run-out at each end) at [speed] ft/epoch (default
    0.1, the paper's robot), reversing direction each round, always
    facing the shelves. @raise Invalid_argument if [rounds <= 0] or
    [speed <= 0]. *)

val run :
  world:Rfid_model.World.t ->
  object_locs:Rfid_geom.Vec3.t array ->
  start:Rfid_model.Reader_state.t ->
  path:segment list ->
  config:config ->
  Rfid_prob.Rng.t ->
  Rfid_model.Trace.t
(** Execute the script. Epochs are numbered from 0; observations carry
    every epoch (readings may be empty on non-interrogation epochs).
    @raise Invalid_argument if [read_every <= 0] or a movement refers to
    an unknown object. *)
