(** Shared stream vocabulary: tags, epochs, observations.

    §II of the paper fixes the input format — an RFID reading stream
    [(time, tag id)] and a reader location stream [(time, (x,y,z))],
    synchronized into coarse epochs (about one second each). This module
    defines the per-epoch observation bundle the inference engine
    consumes; its producers (trace files, the simulator, the server's
    [PUT]) deliver the streams already synchronized. *)

type epoch = int
(** Coarse time step; consecutive integers from 0. *)

type tag = Object_tag of int | Shelf_tag of int
(** Tag identity. Shelf tags are affixed at known, fixed locations and
    anchor the reader-location correction; object tags are the targets
    of inference. *)

val tag_to_string : tag -> string

type observation = {
  o_epoch : epoch;
  o_reported_loc : Rfid_geom.Vec3.t;  (** R-hat_t *)
  o_read_tags : tag list;  (** all tags detected this epoch (objects and shelves) *)
}
(** Synchronized per-epoch evidence: everything the world reveals at
    time t. *)
