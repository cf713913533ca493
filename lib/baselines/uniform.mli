(** The "uniform" baseline of §V-B: whenever a tag is read, its location
    is a uniform random sample over the overlap of the sensing region
    (a disc of the given range around the {e reported} reader location)
    and the shelf area. One event is emitted per presence period, at its
    last read, located at that period's last sample; a period ends after
    15 epochs without a read. The paper uses this as the worst-case
    bound on inference error. *)

val run :
  world:Rfid_model.World.t ->
  read_range:float ->
  ?heading_of:(Rfid_model.Types.epoch -> float) ->
  seed:int ->
  Rfid_model.Types.observation list ->
  Rfid_core.Event.t list
(** [read_range] is the sensing radius (ft); [heading_of] the antenna
    orientation per epoch, when known (see {!Smurf.run}).
    @raise Invalid_argument if [read_range <= 0]. *)
