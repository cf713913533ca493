(** Accuracy metrics: the paper's "inference error" — the average
    distance between reported object locations and true object locations
    (§V-A), split by axis as in Fig. 6(b). *)

type error = {
  mean_x : float;  (** mean |x - x_true| over events, ft *)
  mean_y : float;  (** mean |y - y_true| *)
  mean_xy : float;  (** mean XY-plane Euclidean distance *)
  count : int;  (** events scored *)
}

val inference_error : Rfid_core.Event.t list -> Rfid_model.Trace.t -> error
(** Score each event against the true location of its object at the
    event's epoch (clamped to the trace's last epoch for events emitted
    by an end-of-stream flush). Events for object ids outside the trace
    are ignored. *)

val per_object_error :
  Rfid_core.Event.t list -> Rfid_model.Trace.t -> (int * float) list
(** XY error of each object's {e last} event, by object id (the
    location-update query keeps only the most recent report per tag). *)

val pp_error : Format.formatter -> error -> unit
