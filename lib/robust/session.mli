(** One durable run of the engine: start-up, running and shutdown of
    the checkpoint + write-ahead-log + events-log assembly that makes a
    run restartable. [rfid_clean infer] and [rfid_clean serve] both go
    through here, and both step their stream through
    [Rfid_serve.Core] with the same hooks into this module, so the
    kill-anywhere proof ([make crash-test], both modes) covers one
    implementation.

    {2 Ordering rules}

    {!start} performs, in this order:

    + A {e fresh} run (neither [recover] nor [resume]) clears stale
      checkpoints at [checkpoint] — the rotation directory's files, or
      the single file and its [.tmp]. A leftover checkpoint from an
      earlier run is newer than anything this run writes for a while,
      so a later crash would otherwise recover the wrong run.
    + A {e recovery} loads the newest valid checkpoint at [checkpoint],
      falling back to a fresh engine when none verifies (the crash
      came before the first checkpoint was durable). A [resume] loads
      its path the same way but fails if nothing loads.
    + Recovery trims the events log to complete lines with epoch at or
      below the checkpoint's, stopping at the ["# flush"] marker
      (flush events share the final step's epoch). A torn last line,
      the marker and the flush events behind it, and anything newer
      than the checkpoint are dropped; a missing log is started empty.
    + Recovery reads the WAL {e once}, truncates its torn tail,
      advances the guard's timeline to the restored epoch, replays the
      WAL entries past it into the engine and the events log, and only
      then attaches the journal — so no entry is logged twice.

    While running, every {!checkpoint} publish first fsyncs the WAL and
    the events log (the durability barrier: a published checkpoint
    implies everything it covers is on disk). The end-of-stream order
    of checkpoint, marker and flush events is [Rfid_serve.Core.drain]'s;
    this module only writes what it is handed. {!close} syncs and
    closes both files. *)

type config = {
  checkpoint : string option;
      (** where checkpoints live: a single file when
          [checkpoint_keep = 1], a rotation directory of
          [ckpt-<epoch>.bin] files when it is larger *)
  checkpoint_keep : int;  (** checkpoints kept, >= 1 *)
  wal : string option;  (** write-ahead log path *)
  wal_fsync_every : int;  (** WAL records between forced syncs *)
  events : string option;  (** durable events log path *)
  recover : bool;  (** recover a crashed run instead of starting fresh *)
}

type t

val start :
  ?resume:string ->
  fresh:(unit -> Rfid_core.Engine.t) ->
  restore:(Rfid_core.Engine.snapshot -> Rfid_core.Engine.t) ->
  guard:Ingest.t ->
  config ->
  t
(** Run the start-up sequence above. [guard] must be the fresh guard
    the caller will keep using. Progress notes ([# resuming from ...],
    [# wal: ...]) go to stderr. [resume] is ignored when recovering.
    @raise Invalid_argument if [recover] is set without [checkpoint],
    or [checkpoint_keep < 1].
    @raise Failure if [resume] does not load or WAL replay halts the
    guard. @raise Sys_error if a durable file cannot be opened. *)

val engine : t -> Rfid_core.Engine.t

val replayed : t -> Rfid_core.Event.t list
(** Events regenerated by the WAL replay in {!start}, in emission
    order (already in the events log). *)

val log_events : t -> Rfid_core.Event.t list -> unit
(** Append events to the durable events log, one {!Rfid_core.Event.pp}
    line each. *)

val flush_mark : t -> unit
(** Append the ["# flush"] marker, which recovery trims the events log
    at ([Rfid_serve.Core.drain]'s [on_flush_mark] hook). *)

val checkpoint : t -> unit
(** Publish a checkpoint of {!engine} behind the durability barrier.
    No-op without [checkpoint]. *)

val close : t -> unit
(** Sync and close the WAL and events log. With a WAL it prints
    [# durable-bytes=N] to stderr — the crash-test harness bounds its
    kill offsets with it. *)

val logged_events : t -> Rfid_core.Event.t list
(** Every event line of the events log, parsed back, oldest first;
    blank, comment and unparsable lines are skipped. {!Rfid_core.Event.pp}
    prints at fixed precision, so the parse is lossy (the covariance
    comes back as the diagonal [sd_xy]) but re-printing an event yields
    its original line byte for byte. [[]] without [events]. After a
    recovering {!start} this is the history the uninterrupted run had
    logged by the last replayed epoch. *)
