(** 3-D points/vectors in feet. Object and reader locations throughout
    the library are [Vec3.t]; the warehouse simulator keeps z = 0 (the
    paper assumes all tags at the same height), but the model and engine
    are fully 3-D. *)

type t = { x : float; y : float; z : float }

val make : float -> float -> float -> t
val zero : t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val norm : t -> float
val dist : t -> t -> float

val dist_xy : t -> t -> float
(** Distance projected onto the XY plane (the paper's reported error
    metric is "inference error in XY plane"). *)

val of_array : float array -> t
(** @raise Invalid_argument unless length is 3. *)

val xy_angle : t -> float
(** [atan2 y x] of the vector — heading in the XY plane, radians. *)

val pp : Format.formatter -> t -> unit
