(** Warehouse layout generator (§V-A): consecutive shelves aligned on
    the y axis, objects evenly spaced on the shelves, every shelf
    carrying one tag at a known location. The reader travels along the
    aisle at x = 0 facing the shelves (+x); the shelf front edge is at
    x = 1.5 ft (the aisle width). All tags share a height, so z = 0 everywhere. *)

type t = {
  world : Rfid_model.World.t;
  object_locs : Rfid_geom.Vec3.t array;  (** initial true object locations, index = object id *)
  y_extent : float;  (** total shelf run along y, ft *)
}

val layout : ?objects_per_shelf:int -> num_objects:int -> unit -> t
(** Build a warehouse holding [num_objects] objects, [objects_per_shelf]
    (default 10) to a shelf, 0.5 ft apart, on shelves 1 ft deep, with
    an aisle 1.5 ft wide. Objects sit in the middle of the shelf depth,
    evenly spaced along y; each shelf's tag is at the front-edge centre
    of the shelf. @raise Invalid_argument if [num_objects] or
    [objects_per_shelf] is not positive. *)

val reader_start : t -> Rfid_model.Reader_state.t
(** Reader pose at the start of a scan: on the aisle track just before
    the first shelf, facing the shelves. *)
