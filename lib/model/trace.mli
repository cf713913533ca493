(** Ground-truth-annotated traces.

    A trace is what a workload generator (the model-faithful sampler in
    {!Generative}, or the scripted warehouse/lab simulators in
    [Rfid_sim]) hands to an experiment: per epoch, the hidden state the
    generator actually used (true reader state, true object locations)
    plus the evidence the inference engine is allowed to see. Inference
    consumes only [observation]; evaluation compares its output against
    the hidden state. *)

type step = {
  epoch : Types.epoch;
  true_reader : Reader_state.t;
  true_object_locs : Rfid_geom.Vec3.t array;  (** index = object id *)
  observation : Types.observation;
}

type t = {
  world : World.t;
  num_objects : int;
  steps : step array;  (** consecutive epochs from 0 *)
}

val observations : t -> Types.observation list

val true_object_loc : t -> epoch:Types.epoch -> obj:int -> Rfid_geom.Vec3.t
(** @raise Invalid_argument on out-of-range epoch or object id. *)

val final_object_locs : t -> Rfid_geom.Vec3.t array
(** True object locations at the last epoch. @raise Invalid_argument on
    an empty trace. *)

val epochs : t -> int

