(** Wire framing for the stream server (PROTOCOL.md §2).

    The protocol is line-framed: one request or reply line per [\n],
    with an optional preceding [\r] tolerated (and stripped) on input.
    A {!buffer} reassembles complete lines from the arbitrary byte
    chunks a socket delivers; a line longer than {!max_line_bytes} is
    reported as an {!event} of its own ([`Overflow]) and its bytes are
    discarded through the terminating newline, so one hostile client
    line cannot grow server memory without bound or desynchronize the
    stream.

    The module also owns the float formatting of every reply
    ({!float_str}): a decimal form that reads back as the identical
    IEEE-754 double. Queries answer from live posteriors, and the
    serve-smoke gate diffs those answers byte-for-byte against an
    offline replay — a lossy printf would hide real divergence. *)

val max_line_bytes : int
(** Hard cap on one frame, terminator excluded (64 KiB). *)

type buffer
(** Reassembly state for one connection. *)

val create_buffer : unit -> buffer

type event =
  | Line of string  (** one complete frame, [\r\n]/[\n] stripped *)
  | Overflow  (** a frame exceeded {!max_line_bytes} and was discarded *)

val feed : buffer -> string -> event list
(** Append a received chunk and return the events it completes, in wire
    order. Bytes of a not-yet-terminated line stay buffered for the
    next call. *)

val pending_bytes : buffer -> int
(** Bytes currently buffered awaiting a terminator. *)

val float_str : float -> string
(** The bytes of the first of C's [%.15g], [%.16g], [%.17g] whose
    [float_of_string] is the value again ([%.17g] always is). That is
    not always the shortest form that reads back: [0x1p-1017] prints
    as [7.1202363472230444e-307], since its [%.16g] does not read back
    though another 16-digit string would. Non-finite values print as
    [nan]/[inf]/[-inf]. *)
