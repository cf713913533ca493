(** Static description of the monitored storage area: shelves, some of
    which carry a tag at a known location (§II-A "since the shelves are
    at fixed locations, we assume that the precise locations of their
    tags are also known a priori"). Objects live {e on} shelves; their
    locations are the hidden state that inference estimates.

    A shelf's [tag] may be [None]: the shelf geometry is still known
    (it shapes the object-location prior) but contributes no reference
    tag — calibration experiments vary the number of known tags this
    way. *)

type shelf = {
  shelf_id : int;
  surface : Rfid_geom.Box2.t;  (** area an object on this shelf can occupy *)
  height : float;  (** z coordinate of tags and objects on this shelf *)
  tag : Rfid_geom.Vec3.t option;  (** known location of the shelf's tag, if any *)
}

type t

val create : shelf list -> t
(** @raise Invalid_argument on duplicate or negative shelf ids, or an
    empty list. *)

val shelves : t -> shelf array

val shelf_tag_location : t -> int -> Rfid_geom.Vec3.t
(** Location of shelf tag [i]. @raise Not_found for unknown or untagged
    shelf ids. *)

val shelf_tags : t -> (Types.tag * Rfid_geom.Vec3.t) list
(** All {e tagged} shelves, as [(Shelf_tag id, location)]. *)

val with_shelf_tags : t -> keep:int list -> t
(** Copy of the world keeping only the listed shelf ids' tags (geometry
    unchanged) — the Fig. 5(e) "number of shelf tags used in learning"
    knob. *)

val sample_on_shelves : t -> Rfid_prob.Rng.t -> Rfid_geom.Vec3.t
(** Uniform location over the union of shelf surfaces (area-weighted
    shelf choice, then uniform in the box, z = shelf height). This is
    the object-location prior and the "new location distributed
    uniformly across all shelves" move distribution of §III-A. *)

val contains : t -> Rfid_geom.Vec3.t -> bool
(** Is the XY point on some shelf surface? *)

val clamp_to_shelves : t -> Rfid_geom.Vec3.t -> Rfid_geom.Vec3.t
(** Nearest point (XY) on any shelf surface; identity when already on a
    shelf. Used to keep proposed particle locations physical. *)

val bounding_box : t -> Rfid_geom.Box2.t
(** Box enclosing all shelf surfaces. *)

