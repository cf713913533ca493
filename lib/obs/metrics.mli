(** Metrics registry for the inference stack.

    The process-wide registry holds named {e counters} (monotone ints), {e gauges}
    (last-write-wins floats) and {e histograms} (fixed log-scaled
    buckets), plus {e spans} — histograms fed by monotonic-clock timing
    of a code region. The design targets the hot-path budget of the
    zero-allocation particle loops (DESIGN.md section 9):

    - {b Registration is cold, recording is hot.} [counter]/[gauge]/
      [histogram]/[span] take the registry mutex and may allocate;
      they are called once, at module initialization or setup. The
      recording calls ([incr], [set], [observe], [start]/[stop]) touch
      preallocated cells only — no locks, no allocation beyond the
      boxed float a clock read produces.
    - {b One cell per counter, one row per histogram.} Inference runs
      on one domain, so recording is plain stores. The mutex guards
      only the name table.
    - {b Histograms use fixed log-scaled buckets} (256 buckets, 4 per
      octave, spanning [1e-9 .. ~5e9] in the recorded unit; values at
      or below [1e-9], NaN included, land in the first, values past the
      top in the last), so quantile estimates carry at most ~9% relative error and
      recording is a [log2] plus an integer increment.

    Span values are recorded in {e seconds}; other histograms record
    whatever unit the caller observes (e.g. ESS in particles). When
    tracing is enabled (see {!Trace}), every [stop] also appends a
    chrome trace event. *)

type t
(** A registry: a namespace of metrics. *)

val global : t
(** The process-wide registry: every metric registers and records
    here. *)

val reset : t -> unit
(** Zero every value (counters, gauges, histogram buckets) while
    keeping all registrations and handles valid — benches call this to
    scope the [stages] block to one run. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find-or-register the counter [name]. Idempotent: the same name
    yields the same counter, so module-level handles in independent
    compilation units can share a metric.
    @raise Invalid_argument if [name] is already a gauge/histogram. *)

val incr : counter -> int -> unit
(** Add to the counter. *)

val counter_value : counter -> int
(** Current value. *)

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
(** Find-or-register the gauge [name] (same contract as {!counter}). *)

val set : gauge -> float -> unit
(** Last-write-wins store. *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Find-or-register the histogram [name] (same contract as
    {!counter}). *)

val observe : histogram -> float -> unit
(** Record one value. Non-finite values and values below the smallest
    bucket bound land in bucket 0; sum/min/max are tracked exactly
    alongside the buckets. *)

val histogram_count : histogram -> int
(** Observations recorded. *)

val histogram_sum : histogram -> float
(** Exact sum of observed values. *)

val quantile : histogram -> float -> float
(** [quantile h q] (0 <= q <= 1) by nearest rank over the buckets,
    answering with the geometric midpoint of the selected bucket
    clamped into [[min, max]] — at most ~9% relative error from the
    bucket resolution. [nan] when empty. *)

(** {1 Spans} *)

type span
(** A named timed region: a histogram of durations in seconds plus a
    trace-event source. *)

val span : string -> span
(** Find-or-register span [name]; its histogram is registered under the
    same name ({!histogram} on that name returns it). *)

val now : unit -> float
(** CLOCK_MONOTONIC, in seconds: the clock {!start} and {!stop} read.
    Differences of two readings never go negative when the wall clock
    steps. *)

val start : span -> float
(** Monotonic-clock timestamp (CLOCK_MONOTONIC, in seconds) opening the
    region; pass it to {!stop}. *)

val stop : span -> float -> unit
(** [stop sp t0] records [now - t0] seconds into the span's histogram
    and, when {!Trace.enabled}, appends a chrome trace event. Nested
    spans are fine: each [start]/[stop] pair is independent, and the
    trace viewer recovers nesting from interval containment. *)

(** {1 Read-out} *)

val counters_list : t -> (string * int) list
(** All counters with their values, sorted by name. *)

val gauges_list : unit -> (string * float) list
(** All gauges, sorted by name. *)

val histograms_list : t -> (string * histogram) list
(** All histograms (spans included), sorted by name. *)

val dump_json : ?extra:(string * string) list -> unit -> string
(** One deterministic JSON object:
    [{"schema": "obs/v1", <extra...>, "counters": {...},
    "gauges": {...}, "histograms": {"name": {"count": n, "sum": s,
    "min": m, "max": M, "p50": ..., "p95": ..., "p99": ...}, ...}}].
    [extra] pairs are raw JSON values spliced in after the schema key
    (e.g. [("epoch", "42")]). Metric names are sorted; non-finite
    floats print as [null]; an empty histogram prints only its
    [count]. *)
