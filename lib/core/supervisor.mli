(** Fault-tolerant shard supervision: retry with deterministic backoff,
    cooperative deadlines, poison-shard isolation, graceful degradation.

    {!Parallel.run} is deliberately dumb — a thunk that raises fails the
    whole job. The supervisor wraps each shard's work in a retry loop that
    runs {e inside} its thunk, so the runner never sees an exception:
    a shard that fails every attempt becomes a typed {!outcome.Poisoned}
    value and its siblings are untouched. {!Pipeline.run_shards} turns
    poisoned shards into {!Resilient.dead_letter}s with whole-input
    coordinates, keeping the merged result deterministic.

    Everything that could make a supervised run nondeterministic is pinned:

    - backoff jitter is a hash of [(shard, attempt)], not a PRNG draw or a
      clock read — re-running reproduces the exact retry schedule;
    - deadlines are {e cooperative}: the task receives a [tick] callback and
      calls it at document boundaries ({!Resilient.ingest} does this), so a
      timeout interrupts between documents, never inside one;
    - fault injection is a caller-supplied pure plan
      ({!Chaos.worker_faults}), decided by [(seed, shard)] alone. *)

(** Why an attempt failed — the alphabet the retry classifier speaks. *)
type failure_class =
  | Timed_out            (** the cooperative deadline fired *)
  | Fault of string      (** injected worker fault; payload is the site id *)
  | Crash of string      (** unexpected exception ([Printexc.to_string]) *)

val failure_label : failure_class -> string
(** Constructor name only: ["timeout"], ["fault"], ["crash"] — the
    {!Resilient.fault_kind.Shard} label. *)

val failure_describe : failure_class -> string
(** Label plus payload, e.g. ["chaos:worker@shard2:permanent"] or
    ["crash:Stack_overflow"] — the dead letter's [cause]. *)

exception Abort of failure_class
(** Raised by supervised tasks (or their [tick]) to fail the current
    attempt with a typed cause; anything else raised is a [Crash]. *)

type policy = {
  max_attempts : int;           (** total attempts per shard, >= 1 *)
  timeout_ms : float option;    (** per-attempt cooperative deadline *)
  base_backoff_ms : float;      (** delay before the 2nd attempt *)
  max_backoff_ms : float;       (** exponential growth cap *)
  jitter : float;               (** in [0,1]: delay is spread over
                                    [[1-jitter, 1] * capped] *)
  retryable : failure_class -> bool;
      (** which failures earn another attempt; non-retryable ones poison
          the shard immediately *)
  degrade_threshold : float option;
      (** if the poisoned fraction after the parallel pass exceeds this,
          each poisoned shard gets one sequential, deadline-free,
          injection-free attempt in the calling domain; [None] disables *)
}

val default_policy : policy
(** 3 attempts, no deadline, 1 ms base / 50 ms cap / 0.5 jitter backoff,
    everything retryable except [Crash] (a crash is a bug — retrying hides
    it), degradation at 0.5. *)

val no_retry : policy
(** Single attempt, no deadline, no degradation: supervision reduced to
    poison isolation. It is the default policy of {!Pipeline.run_shards},
    so an unsupervised run is this policy with no journal. *)

val backoff_ms : policy -> shard:int -> attempt:int -> float
(** The deterministic delay inserted after failed [attempt] of [shard]:
    capped exponential with hash-derived jitter. Exposed for tests. *)

type 'a outcome =
  | Done of { value : 'a; attempts : int }
  | Poisoned of { failure : failure_class; attempts : int }
      (** every attempt failed; [attempts] is the exhausted budget,
          distinguishing transient-exhausted from first-try-permanent *)

type stats = {
  shards : int;
  attempts : int;   (** total attempts across all shards *)
  retries : int;    (** attempts beyond each shard's first *)
  timeouts : int;
  faults : int;     (** injected-fault failures *)
  crashes : int;
  poisoned : int;   (** final count, after any degradation pass *)
  degraded : int;   (** poisoned shards the sequential fallback recovered *)
}

val run :
  ?policy:policy -> ?telemetry:Telemetry.sink ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  jobs:int ->
  (attempt:int -> tick:(unit -> unit) -> 'a) list ->
  'a outcome list * stats
(** Execute one task per shard under [policy], on {!Parallel.run} with
    [jobs] (up to [jobs] domains, the calling one among them).
    Tasks receive the current [attempt] (1-based — {!Resilient.ingest}
    stamps it into dead letters) and a [tick] to call at work-unit
    boundaries (the deadline check; whatever [tick] raises fails the
    attempt). [inject] (default none) is consulted before each attempt —
    [Some site] aborts it with [Fault site]; see {!Chaos.worker_faults}.
    Outcomes are in task order. Never raises on task failure; only [jobs]
    plumbing errors escape. [telemetry] receives [supervisor.attempts] /
    [.retries] / [.timeouts] / [.faults_injected] / [.crashes] /
    [.poisoned] / [.degraded] counters (zero-valued ones are omitted) and
    the [supervisor.backoff_ms] histogram. *)

val stats_to_json : stats -> Json.Value.t
