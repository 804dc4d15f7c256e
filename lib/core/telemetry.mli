(** Zero-dependency metrics registry and span tracer for the pipelines.

    The tutorial's quantitative claims (Mison prunes what the query does
    not touch, sharding scales, budgets contain damage) are only credible
    when the pipelines report what they actually did. This module is the
    substrate: monotonic counters, max-gauges, log-scale histograms with
    p50/p90/p99, and lightweight wall-clock span tracing with parent/child
    nesting.

    Design constraints, in order:

    - {b cheap when disabled}: every operation takes a {!sink}; the {!nop}
      sink reduces each call to one branch, so instrumentation can live on
      hot paths unconditionally;
    - {b cheap when enabled}: a metric name is resolved once to a handle
      ({!counter}, {!gauge}, {!histogram}; at module initialisation for
      the fixed names) that indexes the cells of a shard. A recording sink
      keeps one shard per domain, which the domain reaches through
      [Domain.DLS]; the sink's lock is taken only on a domain's first
      touch, so [--jobs N] workers never contend on a write and a
      recording call is a domain-local read plus an array update. Paired
      in-process medians of a pipeline's time under a recording sink over
      its time under {!nop} (release build, 2-core VM, 50k-100k
      documents) read 1.03-1.10 at [--jobs 1] and 1.02-1.13 at
      [--jobs 2], where they were 1.24-2.29 with a lock and a name lookup
      per call: not yet the 1.05 that would make recording free to leave
      on. The string-keyed {!count}, {!gauge_max} and {!observe} land in
      the same cells, for rare and dynamic names; shards are merged when a
      {!snapshot} is taken;
    - {b deterministic pipelines}: recording must never change a
      pipeline's output, only observe it (tested in [test_telemetry]).

    Timing uses [Unix.gettimeofday]; no other dependency. Snapshots taken
    while other domains are still writing are weakly consistent — the
    pipelines snapshot after their domains are joined. *)

(** {1 Histograms} *)

module Histogram : sig
  type t
  (** Log-scale histogram: buckets at quarter powers of two, covering
      [1e-9 .. 1e12] (latencies in seconds through sizes in bytes), with
      exact count / sum / min / max kept alongside. *)

  val create : unit -> t
  val observe : t -> float -> unit
  (** Record a sample. Non-finite samples are dropped; values at or below
      zero land in the underflow bucket (and still count). *)

  val count : t -> int
  val sum : t -> float

  val percentile : t -> float -> float option
  (** [percentile h q] with [0 <= q <= 1]: [None] on an empty histogram,
      otherwise the geometric midpoint of the bucket holding the rank
      [ceil (q * count)] sample, clamped to the exact [min, max] — so a
      one-sample histogram reports that sample exactly for every [q]. *)

  val merge_into : dst:t -> t -> unit
end

type histogram_summary = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

val now : unit -> float
(** [Unix.gettimeofday] — exposed so instrumented code can time intervals
    that do not fit the {!span} shape (queue waits, idle loops) without
    depending on [unix] itself. *)

(** {1 Sinks} *)

type sink

val nop : sink
(** The disabled sink: every operation is a single pattern-match and
    return. [snapshot nop] is empty. *)

val create : unit -> sink
(** A recording sink with per-domain shards. *)

val is_recording : sink -> bool

(** {2 Metric handles}

    A handle names one metric of its kind for the life of the process;
    resolving a name twice gives the same handle, and the string-keyed
    calls below reach the same cells. Resolution takes a process-wide
    lock: do it once, at module initialisation. *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val add : sink -> counter -> int -> unit
(** Add to a monotonic counter (increments [<= 0] are ignored, so a
    counter appears in a {!snapshot} only after a positive one). *)

val raise_to : sink -> gauge -> float -> unit
(** Raise a high-water-mark gauge ("max validation depth reached"): the
    first value sets it, a later one replaces it when greater; shards
    merge the same way. *)

val sample : sink -> histogram -> float -> unit
(** Record a histogram sample (a latency in seconds, a size in bytes).
    The histogram appears in a {!snapshot} from its first sample on, even
    one {!Histogram.observe} drops. *)

(** {2 By name}

    For rare and dynamic names ([ingest.budget.<cap>]): each call looks
    its name up in a table of the calling domain's shard. *)

val count : sink -> string -> int -> unit
(** {!add} by name. *)

val gauge_max : sink -> string -> float -> unit
(** {!raise_to} by name. *)

val observe : sink -> string -> float -> unit
(** {!sample} by name. *)

val span : sink -> string -> (unit -> 'a) -> 'a
(** [span sink name f] times [f ()] with [Unix.gettimeofday] and records
    the duration under the {e path} of the span: nested spans extend their
    parent's path with ["/"], so [span s "infer" (fun () -> span s "merge"
    ...)] records under ["infer"] and ["infer/merge"]. Aggregated per path
    (call count, total and max seconds); re-raises whatever [f] raises,
    still closing the span. Nesting is tracked per domain. *)

(** {1 Capture and replay} *)

type recorded
(** The counters and gauges one computation recorded, kept as handles. *)

val nothing : recorded
(** Records nothing. *)

val capture : (sink -> 'a) -> 'a * recorded
(** [capture f] runs [f] on a fresh recording sink and returns what it
    counted and gauged; its histograms and spans are dropped. *)

val replay : sink -> recorded -> unit
(** Add a capture's counters and raise its gauges on [sink], as if the
    captured computation had run on it. *)

(** {1 Snapshots} *)

type span_summary = {
  sp_path : string;   (** "/"-joined ancestry, e.g. ["infer/merge"] *)
  sp_calls : int;
  sp_total_s : float;
  sp_max_s : float;
}

type snapshot = {
  counters : (string * int) list;              (** sorted by name *)
  gauges : (string * float) list;              (** sorted by name *)
  histograms : (string * histogram_summary) list;  (** sorted by name *)
  spans : span_summary list;                   (** sorted by path *)
}

val snapshot : sink -> snapshot
(** Merge every domain shard into one view: counters and histogram cells
    sum, gauges take the max, spans aggregate per path. *)

val empty_snapshot : snapshot
