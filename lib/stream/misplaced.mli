(** Misplaced-inventory detection — the paper's opening motivation
    ("tracking and monitoring tasks such as identifying misplaced
    inventory in retail stores", §I) expressed as a query over the
    cleaned event stream.

    The store's planogram assigns each object a home region (a shelf
    box). An object is flagged as misplaced when its reported location
    falls outside its home region by more than a tolerance, with a
    debounce: the flag fires only after [confirmations] consecutive
    out-of-place reports, so a single noisy estimate does not page
    anyone. A later in-place report clears the state (and a
    back-in-place notice is emitted). *)

type config = {
  tolerance : float;  (** slack (ft) beyond the home region's edge *)
  confirmations : int;  (** consecutive out-of-place reports required *)
}

type alert = {
  a_epoch : Rfid_model.Types.epoch;
  a_obj : int;
  a_loc : Rfid_geom.Vec3.t;  (** where the object was seen *)
  a_home : Rfid_geom.Box2.t;  (** where it belongs *)
  a_distance : float;  (** XY distance from the home region's edge, ft *)
  a_kind : [ `Misplaced | `Back_in_place ];
}

type t

val create :
  ?config:config -> home:(int -> Rfid_geom.Box2.t option) -> unit -> t
(** [config] defaults to a 0.5 ft tolerance and 2 confirmations.
    [home obj] is the planogram lookup; objects with no assigned home
    are never flagged. @raise Invalid_argument on a non-positive
    tolerance or confirmation count. *)

val push : t -> Rfid_core.Event.t -> alert option
val run : t -> Rfid_core.Event.t list -> alert list

val currently_misplaced : t -> int list
(** Objects in the misplaced state, ascending. *)

val pp_alert : Format.formatter -> alert -> unit
