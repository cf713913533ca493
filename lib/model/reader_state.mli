(** The reader's kinematic state R_t: (x, y, z) position plus heading
    (orientation in the XY plane, radians) — Table I of the paper. *)

type t = { loc : Rfid_geom.Vec3.t; heading : float }

val make : loc:Rfid_geom.Vec3.t -> heading:float -> t
