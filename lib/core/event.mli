(** The clean output stream (§II-A): each event reports the inferred
    location of one object, with optional summary statistics of the
    posterior (the paper's "(statistics)?" field, here the 3×3
    covariance of the location estimate). Events are emitted by
    {!Engine} according to its report policy — by default a fixed delay
    after an object enters the reader's scope, which is how the paper's
    experiments run their location-update query. *)

type t = {
  ev_epoch : Rfid_model.Types.epoch;
  ev_obj : int;  (** object tag id *)
  ev_loc : Rfid_geom.Vec3.t;  (** inferred (x, y, z) *)
  ev_cov : Rfid_prob.Linalg.mat option;  (** posterior covariance, if available *)
  ev_degraded : bool;
      (** the emitting engine was in degraded mode (dead-reckoning
          through missing or rejected location fixes) at or around this
          event's epoch, so the estimate rests on the motion model more
          than on fresh evidence *)
}

val make :
  epoch:Rfid_model.Types.epoch ->
  obj:int ->
  loc:Rfid_geom.Vec3.t ->
  ?cov:Rfid_prob.Linalg.mat ->
  ?degraded:bool ->
  unit ->
  t
(** [degraded] defaults to [false]. *)

val pp : Format.formatter -> t -> unit
(** One line, [t=E obj=O loc=(x, y, z)], followed by [ (sd_xy=S)] when
    the event has a covariance — [S] the root of the mean of the x and
    y variances, a scalar spread summary — and by [ [degraded]] when
    flagged. *)
