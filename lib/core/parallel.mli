(** The runtime of sharded execution on OCaml 5 domains.

    The parametric inference of the tutorial is a map/reduce whose reduce —
    the counting fold {!Jtype.Counting.merge_all}, which the pipelines run
    and {!Jtype.Merge.merge_all} lifts plain types into — is associative
    and commutative, so sharding a
    collection and fusing per-shard results is semantics-preserving by
    construction. This module supplies the runtime for that shape: one
    fork/join loop that runs thunks on up to [jobs] domains, the calling
    one among them, NDJSON sharding at newline boundaries, and the merges
    of per-shard ingest results. The one executor that runs every NDJSON
    job on it, with supervision and checkpointing, is
    {!Pipeline.run_shards}.

    A sharded run is {e byte-identical} to the sequential scan on
    newline-delimited input: dead letters carry whole-input line numbers
    and byte offsets (via {!Resilient.scan}'s rebasing parameters)
    and are re-sorted by global position ({!dead_order}), and report
    counters are summed ({!merge_reports}). The one caveat is inherent to
    sharding: a single document spanning a shard boundary (pretty-printed
    multi-line JSON) would be split, so parallel ingestion assumes
    one-document-per-line NDJSON. *)

val run : jobs:int -> (unit -> 'a) list -> 'a list
(** Run every thunk and return the results in thunk order. [min jobs n - 1]
    helper domains are started for [n] thunks; the helpers and the calling
    domain take thunks by an atomic index until none is left, and the
    caller joins the helpers. A helper the runtime refuses to start (OCaml
    5.1 runs at most 128 domains) is not started, and the domains already
    running take its share. Every thunk runs even when some raise; once
    all have run and every helper is joined, the first exception in thunk
    order is re-raised in the caller. *)

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
