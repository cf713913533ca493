(** Planar sensing cones.

    Two uses in the system: the simulator's ground-truth sensing region
    (a 30° major cone plus a 15° minor fringe, §V-A), and the
    sensor-model-based particle initialization of §IV-A ("a uniform
    distribution over a cone originating at the reader location" whose
    width overestimates the true range).

    A cone is a circular sector in the XY plane: apex, heading (radians,
    mathematical convention), half-angle, and radial range. *)

type t = private { apex : Vec3.t; heading : float; half_angle : float; range : float }

val make : apex:Vec3.t -> heading:float -> half_angle:float -> range:float -> t
(** @raise Invalid_argument unless [0 < half_angle <= pi] and
    [range > 0]. *)

val contains : t -> Vec3.t -> bool
(** XY distance within range, and the apex-to-point direction (XY
    projection) within the half-angle of the heading; the apex itself
    is inside. *)

val sample : t -> Rfid_prob.Rng.t -> Vec3.t
(** Area-uniform sample inside the sector, at z = apex.z. *)

