(** The RFID-SERVE/1 protocol state machine, independent of sockets.

    {!handle_line} maps one request frame to one reply (possibly
    multi-line, always ending in [\n]) plus a close flag; {!tick}
    drains queued [PUT] observations through the ingest guard into the
    engine. {!Server} shuttles bytes between this module and
    connections; the PROTOCOL.md conformance test and the fuzzer drive
    it directly, in-process, so every documented exchange is exercised
    without a socket in the loop. [rfid_clean infer] steps its stream
    with {!ingest} and {!drain}: both commands share this one loop.

    Request grammar, reply grammar, and the error taxonomy are
    normative in PROTOCOL.md; this interface only summarizes the state
    the machine carries:

    - the {e admission queue} between [PUT] and the engine (bounded;
      full → [BUSY], see {!Admission});
    - the {e query layer} of posterior index and event ring
      (see {!Query});
    - three latches: {e paused} ([PAUSE]/[RESUME] gate {!tick} only),
      {e draining} ([DRAIN] — terminal for writes, queries stay up),
      and {e halted} (the guard halted on an out-of-order epoch —
      terminal for writes, with the fault echoed in every subsequent
      write reply). *)

type hooks = {
  on_events : Rfid_core.Event.t list -> unit;
      (** fired with each batch of newly emitted events, after they are
          in the ring — the durable events log writes here *)
  on_flush_mark : unit -> unit;
      (** fired by {!drain} between its checkpoint and the flush
          events — the events log writes its ["# flush"] marker here *)
  on_admitted : int -> unit;
      (** fired with {!admitted} each time a step advances the engine's
          epoch, before that step's [on_events] — [infer
          --metrics-every] snapshots here *)
  on_checkpoint : Rfid_core.Engine.t -> unit;
      (** fired on the checkpoint cadence and by {!drain}; both
          commands snapshot and save here, behind the session's
          durability barrier *)
}

val no_hooks : hooks

type t

val create :
  guard:Rfid_robust.Ingest.t ->
  engine:Rfid_core.Engine.t ->
  num_objects:int ->
  ?admit_cap:int ->
  ?events_keep:int ->
  ?checkpoint_every:int ->
  ?hooks:hooks ->
  unit ->
  t
(** [admit_cap] bounds the admission queue (default 1024);
    [checkpoint_every] is the admitted-epoch checkpoint cadence
    (default 0 = only on [DRAIN]). @raise Invalid_argument if
    [admit_cap < 1] or [checkpoint_every < 0]. *)

val greeting : t -> string
(** The banner sent on connect, newline-terminated. *)

val handle_line : t -> string -> string * bool
(** [handle_line t line] is [(reply, close)]. [reply] is [""] for an
    empty request line and otherwise one or more [\n]-terminated lines;
    [close] is [true] only for [QUIT]. Never raises on any input. *)

val ingest :
  t ->
  Rfid_model.Types.observation ->
  (unit, Rfid_robust.Ingest.fault * string) result
(** Step one observation through the guard into the engine now,
    outside the queue and the pause latch, firing the hooks as {!tick}
    does. A guard halt latches {e halted} and is returned as the
    error; call it no more after that. *)

val tick : t -> max_steps:int -> int
(** Step up to [max_steps] queued observations through the engine;
    returns how many were processed. No-op (0) while paused, halted, or
    empty. *)

val drain : t -> unit
(** End the stream ([DRAIN] without the reply): process the queue,
    then, unless halted, fire [on_checkpoint], [on_flush_mark], and
    [on_events] with the engine's flush events; latch draining.
    Idempotent. This is the one end-of-stream order: every checkpoint
    holds a pre-flush engine, so recovery trims the events log at the
    marker and regenerates the flush events. [infer] and the server's
    [DRAIN] and SIGTERM paths call it. *)

val queue_depth : t -> int
val epoch : t -> int
val admitted : t -> int
(** Steps that advanced the engine's epoch since {!create}. *)

val engine : t -> Rfid_core.Engine.t
val preload_event : t -> Rfid_core.Event.t -> unit
(** Seed the event ring (recovery replays the durable events log here
    before serving). *)
