(** Validating front door for observation streams.

    Real deployments do not deliver the clean, strictly-increasing
    epoch sequence the inference engine's contract assumes: positioning
    units emit NaN during outages, middleware duplicates and reorders
    records, and readers pick up tags from outside the deployment's
    universe. The guard classifies each incoming observation against a
    small fault taxonomy and applies one fixed treatment per fault, so
    the engine behind it only ever sees admissible input, and every
    intervention is counted:

    - a negative or duplicate epoch is rejected;
    - an out-of-order epoch halts the stream, or is rejected when the
      guard was created with [~drop_out_of_order:true] — the one choice
      left to callers;
    - an epoch gap (a forward jump of more than 100 epochs) is counted
      and admitted;
    - out-of-range tags are stripped from the reading;
    - a non-finite fix degrades the epoch (the timeline advances, the
      fix is discarded, the validated tags ride along);
    - an out-of-bounds fix is clamped onto the bounds inflated by 10
      on every side. *)

type fault =
  | Nonfinite_fix  (** NaN/infinite coordinate in the reported fix *)
  | Out_of_bounds_fix  (** finite fix far outside the deployment bounds *)
  | Negative_epoch
  | Duplicate_epoch  (** same epoch as the last admitted record *)
  | Out_of_order_epoch  (** epoch earlier than the last admitted record *)
  | Epoch_gap  (** forward jump larger than 100 epochs *)
  | Out_of_range_tag  (** negative tag id, or object id >= [max_object_id] *)

val fault_name : fault -> string
(** Stable kebab-case name (e.g. ["nonfinite-fix"]), used in log lines,
    bench JSON, and the ["ingest.fault.*"] observability counters. *)

type decision =
  | Accept of Rfid_model.Types.observation
      (** possibly repaired; feed to {!Rfid_core.Engine.step} *)
  | Degraded of Rfid_model.Types.epoch * Rfid_model.Types.tag list
      (** fix rejected but timeline advanced; the epoch's validated tag
          readings ride along (shelf tags among them still localize the
          reader). Feed to {!Rfid_core.Engine.step_degraded}. *)
  | Rejected  (** record discarded entirely *)
  | Halted of fault * string
      (** an out-of-order epoch on a guard that does not drop them *)

type t

val create :
  ?drop_out_of_order:bool ->
  ?bounds:Rfid_geom.Box2.t ->
  ?max_object_id:int ->
  unit ->
  t
(** [drop_out_of_order] (default [false]) rejects an out-of-order
    epoch instead of halting on it. [bounds] (typically
    {!Rfid_model.World.bounding_box}) enables the out-of-bounds check,
    with 10 of slack on every side. [max_object_id] enables the
    object-id range check (valid ids are [0 .. max_object_id - 1]).
    @raise Invalid_argument if [max_object_id] is negative. *)

val counters : t -> (fault * int) list
(** Every fault with its count, in {!fault_name} display order. *)

val admit : t -> Rfid_model.Types.observation -> decision
(** Classify one observation, update the guard's timeline state and
    counters, and say what to do with it. Never raises. *)

val advance_timeline : t -> Rfid_model.Types.epoch -> unit
(** Fast-forward the guard's last-admitted-epoch marker (no-op if it is
    already at or past [epoch]). Recovery uses this to seed a fresh
    guard from a checkpoint's epoch, and to keep the timeline in step
    while replaying write-ahead-log entries that bypass {!admit} (see
    [Rfid_robust.Wal.replay]). *)

val step_engine :
  t ->
  Rfid_core.Engine.t ->
  Rfid_model.Types.observation ->
  (Rfid_core.Event.t list, fault * string) result
(** {!admit} one observation and route it to the engine: [Accept] →
    {!Rfid_core.Engine.step}, [Degraded] →
    {!Rfid_core.Engine.step_degraded}, [Rejected] → no-op. *)

val run_engine :
  t ->
  Rfid_core.Engine.t ->
  Rfid_model.Types.observation list ->
  (Rfid_core.Event.t list, fault * string) result
(** Run a whole stream through {!step_engine} and finish with
    {!Rfid_core.Engine.flush}; stops at the first [Halted] decision. *)

val pp_counters : Format.formatter -> t -> unit
(** Human-readable fault summary: the non-zero counters as
    ["name: n"] pairs, or ["no faults"]. *)
