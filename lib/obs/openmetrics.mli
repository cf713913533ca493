(** OpenMetrics text rendering of the {!Metrics} registry.

    One {!render} call turns the registry's current read-out
    into the OpenMetrics text exposition format — the wire syntax
    statsd-style sinks and Prometheus-compatible scrapers both accept —
    so the serving layer can push live telemetry without taking on a
    metrics client dependency.

    Mapping choices (documented in RUNBOOK.md):
    - counters render as [# TYPE <name> counter] + [<name>_total <v>];
    - gauges render as [# TYPE <name> gauge] + [<name> <v>];
    - histograms (spans included) render as summaries: quantile samples
      at 0.5/0.95/0.99 plus [_sum] and [_count]. Empty histograms emit
      only their [_count 0] — a quantile of an empty histogram is NaN,
      which the format has no use for.

    Metric names are sanitized to the exposition charset
    ([[a-zA-Z0-9_:]]; every other byte becomes [_], a leading digit
    gains a [_] prefix). Sample values print as compact [%.9g] decimals
    — telemetry precision, not the bit-exact round-tripping the query
    protocol needs. Output ends with [# EOF]. Rendering is read-only
    and deterministic for a given registry state. *)

val render : unit -> string
(** The whole of {!Metrics.global} as one exposition-format document. *)
