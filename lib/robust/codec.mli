(** Portable binary codec for {!Rfid_core.Engine.snapshot}.

    OCaml's [Marshal] ties a byte stream to the compiler build that
    wrote it, which makes checkpoints useless for shard handoff,
    rolling upgrades, or cross-host recovery. This codec writes an
    explicit format instead: every integer is a little-endian 64-bit
    word, every float its IEEE-754 bits likewise, so the bytes mean the
    same thing on any platform and any future build.

    Layout: a 4-byte magic (["RCOD"]), a version byte, then a fixed
    sequence of {e sections} — [name, body length,
    body, Adler-32 of the body] — covering the complete snapshot: RNG
    states, particle slabs, index entries, compression queue, pending
    reports, degraded-mode counters. Per-section framing means a decode
    failure names the section and byte offset where the stream went
    bad, and a corrupted region is caught by its own checksum before
    its bytes can be misread as structure.

    Decoding is strict: canonical-form checks (booleans and option tags
    must be 0/1, lengths must fit the remaining bytes) mean a
    successful decode implies the bytes are exactly what {!encode}
    produces for that snapshot. Corrupted input yields [Error], never a
    wrong snapshot and never an escaping exception. *)

val encode : Rfid_core.Engine.snapshot -> string
(** Serialize to the portable format. Total cost is one linear pass
    plus the per-section checksums. *)

val decode : string -> (Rfid_core.Engine.snapshot, string) result
(** Parse and verify. All failure modes — bad magic, unsupported
    version, truncation, checksum mismatch, implausible length,
    non-canonical tag — return [Error] with the offending section and
    absolute byte offset. Never raises. *)

val adler32 : ?pos:int -> ?len:int -> string -> int
(** Adler-32 (RFC 1950) over [s.[pos .. pos+len-1]] (default: the whole
    string) — the checksum used by the section framing, the checkpoint
    envelope, and the write-ahead log records. *)

(** Shared wire primitives, exported for {!Wal}'s record bodies so both
    formats stay byte-compatible by construction. All multi-byte values
    are little-endian; readers raise {!Prim.Corrupt} (caught and
    converted to [Error] by the owning decoder) on truncation or
    non-canonical input. *)
module Prim : sig
  exception Corrupt of int * string
  (** [(absolute offset, what went wrong)] *)

  (** {2 Writers (append to a [Buffer.t])} *)

  val add_u8 : Buffer.t -> int -> unit
  val add_int : Buffer.t -> int -> unit
  val add_vec3 : Buffer.t -> Rfid_geom.Vec3.t -> unit
  val add_tag : Buffer.t -> Rfid_model.Types.tag -> unit
  val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

  (** {2 Readers (consume from a cursor)} *)

  type cursor

  val cursor : ?pos:int -> ?len:int -> string -> cursor
  val pos : cursor -> int
  val remaining : cursor -> int
  val r_u8 : cursor -> int
  val r_int : cursor -> int
  val r_vec3 : cursor -> Rfid_geom.Vec3.t
  val r_tag : cursor -> Rfid_model.Types.tag

  val r_list : ?elem_bytes:int -> (cursor -> 'a) -> cursor -> 'a list
  (** [elem_bytes] is a lower bound on the per-element encoding: the
      decoded length is validated against the bytes actually left, so a
      corrupted length can never drive a huge allocation. *)
end
