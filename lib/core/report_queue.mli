(** The report-delay policy: an object that enters the reader's scope
    is reported once per encounter, a fixed delay later ("within x
    seconds after an object was read"), with the posterior its filter
    holds at that epoch. {!Engine} runs it over the factorized filter,
    and [Rfid_eval.Runner.run_joint] over the basic joint filter, so
    both emit events by the same rule. *)

type t

val create :
  delay:int ->
  estimate:(int -> (Rfid_geom.Vec3.t * Rfid_prob.Linalg.mat) option) ->
  t
(** An empty queue whose reports fall due [delay] epochs after
    scheduling, each read through [estimate] when emitted. *)

val schedule : t -> epoch:int -> int list -> unit
(** Queue a report due at [epoch + delay] for each listed object that
    has none pending (the objects that just entered scope). *)

val drain_due : t -> at:int -> degraded:bool -> Event.t list
(** Emit the reports due at or before [at], in scheduling order, as
    events at epoch [at] flagged [degraded]. An object [estimate]
    knows nothing about is dropped without an event. *)

val flush : t -> at:int -> degraded:bool -> Event.t list
(** Emit every pending report at [at] and empty the queue (end-of-scan
    policy). *)

val degraded_events : t -> int
(** Reports emitted with the degraded flag since creation (or
    {!restore}). *)

(** {1 Checkpointing} *)

val pending : t -> (int * int) list
(** The queue as (due epoch, object), in scheduling order. *)

val scheduled : t -> int list
(** Objects with a pending report, ascending. *)

val restore :
  delay:int ->
  estimate:(int -> (Rfid_geom.Vec3.t * Rfid_prob.Linalg.mat) option) ->
  pending:(int * int) list ->
  scheduled:int list ->
  degraded_events:int ->
  t
(** A queue holding what {!pending}, {!scheduled} and
    {!degraded_events} read from another. *)
