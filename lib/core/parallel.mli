(** The runtime of sharded execution on OCaml 5 domains.

    The parametric inference of the tutorial is a map/reduce whose reduce —
    {!Jtype.Merge.merge}, and the counting fold {!Jtype.Counting.merge_all}
    the pipelines run — is associative and commutative, so sharding a
    collection and fusing per-shard results is semantics-preserving by
    construction. This module supplies the runtime for that shape: a
    hand-rolled fixed pool of domains fed by a bounded work queue, NDJSON
    sharding at newline boundaries, and the merges of per-shard ingest
    results. The one executor that runs every NDJSON job on it, with
    supervision and checkpointing, is {!Pipeline.run_shards}.

    A sharded run is {e byte-identical} to the sequential scan on
    newline-delimited input: dead letters carry whole-input line numbers
    and byte offsets (via {!Resilient.ingest_with}'s rebasing parameters)
    and are re-sorted by global position ({!dead_order}), and report
    counters are summed ({!merge_reports}). The one caveat is inherent to
    sharding: a single document spanning a shard boundary (pretty-printed
    multi-line JSON) would be split, so parallel ingestion assumes
    one-document-per-line NDJSON. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** {1 Pool primitives} *)

val run : ?telemetry:Telemetry.sink -> jobs:int -> (unit -> 'a) list -> 'a list
(** Execute the thunks on a pool of [min jobs n] domains with a bounded
    ([2 * jobs]) work queue; results are returned in submission order. An
    exception in any thunk is re-raised in the caller after the pool is
    drained and joined. [jobs <= 1] (or a single thunk) runs in the calling
    domain. [telemetry] (default {!Telemetry.nop}) receives the pool's
    health histograms: [pool.queue_wait_s] (enqueue-to-start latency per
    task) and [pool.idle_s] (per-dequeue worker starvation time). *)

type shard = {
  s_off : int;   (** byte offset of the shard in the whole input *)
  s_len : int;
  s_line : int;  (** 1-based line number of the shard's first byte *)
}

val shards : jobs:int -> string -> shard list
(** Split [src] into at most [jobs] spans that cover it exactly, cutting
    only just after ['\n'] so no NDJSON line is divided. Spans are balanced
    by bytes, not by line count. *)

val merge_reports : Resilient.report -> Resilient.report -> Resilient.report
(** Sum two shard reports (counters add, cause breakdowns merge, truncation
    ors). *)

val dead_order : Resilient.dead_letter -> Resilient.dead_letter -> int
(** Global input order for dead letters (by whole-input byte offset) — the
    order the sequential scan produces them in. *)

val with_kernel_stats : Telemetry.sink -> (unit -> 'a) -> 'a
(** Run [f] and emit the {!Jtype.Kernel} counter deltas it caused
    ([kernel.nodes], [kernel.intern.hits], and the
    [kernel.{merge,fuse,simplify}.*] and [kernel.cache.clears] traffic of
    any {!Jtype.Merge} fusion inside [f]) into the sink. No-op on
    {!Telemetry.nop}. Call only around joined parallel sections (deltas
    are summed over all domains). *)
