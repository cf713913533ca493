(** Durable engine checkpoints, so a long-running inference process can
    be killed and resumed without replaying its whole input — and
    resume {e bit-identically}: the snapshot captures every piece of
    dynamic state (RNG streams included), so the event stream after a
    resume equals the uninterrupted one exactly.

    Format (v2): a two-line text header — magic + version, then
    [epoch=<E> bytes=<N> adler32=<checksum>] — followed by [N] bytes of
    {!Codec}-encoded {!Rfid_core.Engine.snapshot}. The outer checksum
    is verified on load, the codec then verifies each section's own
    checksum, and the header epoch is cross-checked against the decoded
    snapshot's epoch, so a truncated, corrupted, or mislabeled file
    yields a clean [Error] naming what went bad — never a garbage
    engine state. The legacy v1 format (same header, [Marshal] payload)
    was readable for exactly one release of migration and is now
    refused with an explicit error telling the operator to re-create
    the checkpoint; {!save} always writes v2.

    Checkpoints are written atomically (write to [path ^ ".tmp"],
    [fsync], then rename, then directory fsync), so a crash at any byte
    of {!save} cannot destroy the previous checkpoint at [path] and a
    completed save survives power loss.

    For kill-anywhere recovery, {!save_rotating} keeps the last [keep]
    checkpoints as [ckpt-<epoch>.bin] files in a directory and
    {!load_auto} on that directory walks them newest-first, falling
    back down the chain past any corrupted file. *)

val save : path:string -> Rfid_core.Engine.snapshot -> unit
(** Write a checkpoint atomically and durably (via [path ^ ".tmp"] +
    fsync + rename + directory fsync). Encode time is recorded in the
    [stage.checkpoint_encode] span.
    @raise Sys_error if the file cannot be written. *)

val load : path:string -> (Rfid_core.Engine.snapshot, string) result
(** Read and verify a checkpoint (v2 only; a legacy v1 file gets an
    [Error] naming the dropped format). All failure modes — missing
    file, wrong magic, unsupported version, truncation, checksum
    mismatch, undecodable payload, header/payload epoch disagreement —
    return [Error] with a descriptive message naming the failing part.
    Decode time is recorded in the [stage.checkpoint_decode] span. *)

val load_exn : path:string -> Rfid_core.Engine.snapshot
(** @raise Failure on any [Error] from {!load}. *)

(** {1 Rotation}

    A single checkpoint file has a window of vulnerability exactly when
    it matters most: if the process dies {e while} writing, the atomic
    rename protects the previous file, but if the previous file was
    already corrupt on disk (bit rot, operator accident) there is no
    further fallback. Rotation keeps the last [keep] checkpoints so
    recovery can walk back to the newest one that still verifies. *)

val save_rotating :
  dir:string -> keep:int -> Rfid_core.Engine.snapshot -> unit
(** Save into [dir] (created if missing) as [ckpt-<epoch>.bin] via
    {!save}'s atomic path, then delete the oldest files beyond the
    [keep] (≥ 1) newest. Re-checkpointing the same epoch overwrites
    that file.
    @raise Sys_error if the directory cannot be created or written. *)

val clear_rotation : dir:string -> unit
(** Delete every checkpoint file ([ckpt-*.bin]) and stale temp file in
    [dir]. A run starting from scratch must call this on its rotation
    directory: leftover checkpoints from an earlier run are {e newer}
    than anything the fresh run will write for a while, so a later
    crash + recovery would resume from the stale state instead of the
    current run's. (Fresh runs already truncate their WAL and event
    log; this is the same hygiene for the checkpoint directory.)
    Missing directory is a no-op. *)

val load_auto : path:string -> (Rfid_core.Engine.snapshot, string) result
(** {!load} if [path] is a file. If it is a directory, the newest
    (highest-epoch) checkpoint in it that passes verification, silently
    skipping corrupted newer ones; [Error] only when none loads, and
    the message then lists every file tried and why it failed. The
    dispatch behind the CLI's [--resume], which accepts either. *)
