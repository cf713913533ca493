(** The complete parameter vector of the joint model of §III-B: sensor
    coefficients, reader motion, reader location sensing, and object
    dynamics. This is what calibration (§III-C) estimates and what every
    inference engine consumes. *)

type t = {
  sensor : Sensor_model.t;
  motion : Motion_model.t;
  sensing : Location_sensing.t;
  objects : Object_model.t;
}

val default : t

val create :
  ?sensor:Sensor_model.t ->
  ?motion:Motion_model.t ->
  ?sensing:Location_sensing.t ->
  unit ->
  t
(** Omitted components take their defaults; the object model is always
    {!Object_model.default}. *)

val pp : Format.formatter -> t -> unit
