(** Axis-aligned rectangles in the XY plane.

    The spatial index of §IV-C works over bounding boxes of sensing
    regions; since the warehouse geometry is planar (fixed tag height),
    the boxes are 2-D. A box is [{min_x; min_y; max_x; max_y}] with
    inclusive bounds; invalid (min > max) boxes cannot be constructed. *)

type t = private { min_x : float; min_y : float; max_x : float; max_y : float }

val make : min_x:float -> min_y:float -> max_x:float -> max_y:float -> t
(** @raise Invalid_argument if a min exceeds its max or any bound is NaN. *)

val of_center : Vec3.t -> half_width:float -> half_height:float -> t

val contains_point : t -> Vec3.t -> bool
(** XY containment, inclusive. *)

val contains_xy : t -> x:float -> y:float -> bool
(** {!contains_point} on raw coordinates — for callers holding particle
    positions in unboxed slabs rather than [Vec3.t]s. *)

val intersects : t -> t -> bool
(** Closed-box overlap test (shared edges count). *)

val union : t -> t -> t
val area : t -> float

val inflate : t -> float -> t
(** Grow every side outward by a margin. @raise Invalid_argument if the
    margin is negative enough to invert the box. *)

