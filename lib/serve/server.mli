(** Single-threaded TCP front end for {!Core} (RUNBOOK.md §2).

    One [Unix.select] loop multiplexes the listening socket, every
    client connection, inference progress and periodic work — no
    threads, no domain crossing, so the engine behind {!Core} keeps its
    deterministic single-writer discipline by construction. Each pass
    the loop accepts new connections (the greeting is written at once),
    then for each readable connection reads what the kernel has
    buffered, frames it ({!Framing}), answers each complete line
    through {!Core.handle_line} and writes the replies of that read
    straight away, in one write; only then does the engine get a
    bounded tick ([max_steps_per_tick] queued observations), so a reply
    never waits behind inference and one firehose client cannot starve
    queries on other connections. Accepted sockets set [TCP_NODELAY].

    Connections are non-blocking end to end. A client that stops
    reading grows only its own reply backlog, and only to
    {!max_out_bytes} plus one reply: past that the loop stops reading
    the connection (framed lines wait undispatched) until the client
    reads. [SIGPIPE] is ignored;
    [SIGTERM]/[SIGINT] latch a stop flag, and the loop then drains
    ({!Core.drain}: queue → flush → checkpoint hook), makes a best
    effort to flush pending replies, closes every socket and
    returns — the documented "graceful drain" lifecycle. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port *)
  max_steps_per_tick : int;
      (** queued observations stepped per loop pass *)
}
(** Two limits are fixed: at most 64 connections at once (a connection
    past that is accepted and closed at once), and a select wait of at
    most 50 ms, so a pass runs at least that often (the loop only polls
    while a tick left queued work behind). *)

val default_config : config
(** [{host = "127.0.0.1"; port = 0; max_steps_per_tick = 256}] *)

val max_out_bytes : int
(** Read backpressure threshold (1 MiB): a connection with more unsent
    reply bytes than this is not read, and its framed lines are not
    answered, until the client has read enough to bring the backlog
    back under it; so no backlog exceeds it by more than one reply
    (PROTOCOL.md §1). Nothing is dropped. *)

val run :
  ?on_listening:(host:string -> port:int -> unit) ->
  ?on_pass:(out_backlog:int -> unit) ->
  ?should_stop:(unit -> bool) ->
  Core.t ->
  config ->
  unit
(** Serve until a stop is requested, then drain and return.

    [on_listening] fires once with the bound address — with [port = 0]
    this is the only way to learn the actual port. [on_pass] fires
    once per loop pass after the engine tick (metrics push cadence
    hangs here) with the largest unsent reply backlog of any
    connection, in bytes. [should_stop] is polled each pass in
    addition to the signal latch, for embedding in tests.

    @raise Unix.Unix_error if the listening socket cannot be bound. *)
