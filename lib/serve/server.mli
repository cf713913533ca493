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
    tick bounded by time (below), so a reply never waits behind
    inference and one firehose client cannot starve queries on other
    connections: a request that arrives during a burst waits at most
    the tick budget plus one epoch step. Accepted sockets set
    [TCP_NODELAY].

    Connections are non-blocking end to end. A client that stops
    reading grows only its own reply backlog, and only to
    {!max_out_bytes} plus one reply: past that the loop stops reading
    the connection (framed lines wait undispatched) until the client
    reads. [SIGPIPE] is ignored;
    [SIGTERM]/[SIGINT] latch a stop flag, and the loop then drains
    ({!Core.drain}: queue → flush → checkpoint hook), makes a best
    effort to flush pending replies, closes every socket and
    returns — the documented "graceful drain" lifecycle. *)

(** Three limits are fixed:
    - [max_conns]: at most 64 connections at once (a connection past
      that is accepted and closed at once);
    - [tick_timeout]: a select wait of at most 50 ms, so a pass runs at
      least that often (the loop only polls while a tick left queued
      work behind);
    - [tick_budget]: each pass's tick steps queued epochs one at a time
      until 2 ms have passed on CLOCK_MONOTONIC ({!Rfid_obs.Metrics.now}).
      A tick with work steps at least one epoch and stops only between
      epochs, so it lasts at most the budget plus one step. The span
      [stage.serve_tick] records each tick that stepped an epoch: its
      histogram is tick time against this budget. *)

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
  host:string ->
  port:int ->
  Core.t ->
  unit
(** Serve on [host:port] until a stop is requested, then drain and
    return. [port = 0] picks an ephemeral port.

    [on_listening] fires once with the bound address — with [port = 0]
    this is the only way to learn the actual port. [on_pass] fires
    once per loop pass after the engine tick (metrics push cadence
    hangs here) with the largest unsent reply backlog of any
    connection, in bytes. [should_stop] is polled each pass in
    addition to the signal latch, for embedding in tests.

    @raise Unix.Unix_error if the listening socket cannot be bound. *)
