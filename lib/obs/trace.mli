(** Chrome-trace-event sink for offline flamegraph inspection.

    When the [OBS_TRACE] environment variable names a file, every
    {!Metrics.stop} appends one complete ("X"-phase) trace event to an
    in-memory buffer, and the buffer is written as a Chrome
    [traceEvents] JSON document at process exit.
    Load the file in [chrome://tracing] or Perfetto to see the
    per-stage span structure of a run; nesting is recovered from
    interval containment, so no begin/end pairing is required.

    With [OBS_TRACE] unset the sink is disabled and {!emit} is a
    no-op — the only cost on the metrics hot path is one branch. The
    buffer is capped at 1,000,000 events so a long run cannot grow
    without bound; events past the cap are counted but not recorded. *)

val enabled : unit -> bool
(** Whether a trace sink is active (an [OBS_TRACE] path was present at
    startup). *)

val emit : name:string -> ts_us:float -> dur_us:float -> unit
(** Record one complete span: [name], start timestamp and duration in
    microseconds. No-op when disabled; thread-safe. *)

