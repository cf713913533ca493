(** Object location model (§III-A): objects are stationary but change
    location with probability [move_prob] (alpha) per epoch, in which
    case the new location is uniform over all shelves. The model carries
    no information about {e where} a moved object went — inference
    recovers that from subsequent readings; the transition merely keeps
    particle diversity alive. *)

type t = { move_prob : float }

val default : t
(** alpha = 1e-4. *)

val sample_next : t -> World.t -> Rfid_prob.Rng.t -> Rfid_geom.Vec3.t -> Rfid_geom.Vec3.t
(** Draw O_t given O_{t-1}. *)
