(** End-to-end pipelines combining the toolkit's components — the workflows
    a user of the tutorial's systems would actually run. *)

(** {1 Inference pipeline} *)

type inferred = {
  jtype : Jtype.Types.t;            (** the union-aware structural type *)
  counting : Jtype.Counting.t;      (** with cardinalities *)
  json_schema : Json.Value.t;       (** translated to JSON Schema *)
  typescript : string;              (** TypeScript declarations *)
  swift : string;                   (** Swift Codable declarations *)
}

val infer :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> Json.Value.t list -> inferred
(** One call from collection to every schema artifact (default equivalence
    [Kind], default root declaration name ["Root"]): the tree engine's
    inference. It runs one counting fold ({!Parallel.infer_counting},
    shard-parallel when [jobs > 1]) and reads [jtype] off it by
    {!Jtype.Counting.erase}, which equals {!Inference.Parametric.infer};
    the result is identical for any job count. [telemetry] (default
    {!Telemetry.nop}) observes without changing any output: the spans of
    {!Parallel.infer_counting}, [infer.merge_ops] (documents − 1), one
    [infer.union_width] sample, and the [kernel.*] deltas of
    {!Parallel.with_kernel_stats}. *)

type engine = [ `Tree | `Streaming ]
(** How the NDJSON pipelines execute. [`Tree] (the executable spec)
    materializes every document as a {!Json.Value.t} and folds over the
    trees. [`Streaming] (the default) fuses parsing with the fold:
    inference types the token stream directly
    ({!Inference.Streaming.infer_tokens}) and validation walks a compiled
    plan over it, skimming subtrees the plan provably ignores
    ({!Jsonschema.Compile.run_stream}). The two engines produce
    byte-identical inferred types, verdicts, error lists and dead-letter
    coordinates — enforced by a differential QCheck oracle — and differ
    only in cost and in the [stream.*] telemetry the streaming engine adds.
    The one observable difference: streaming pipelines return their
    {!Resilient.ingest} with an empty [docs] list (not materializing it is
    the point); consumers must read counts off [report], not [docs]. *)

val infer_ndjson :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string -> (inferred, string) result
(** Strict inference from raw text: fail-fast on the first bad document,
    with global line/column in the error. The default [`Streaming] engine
    types the token stream shard-parallel without materializing documents;
    [`Tree] parses through {!Parallel.parse_ndjson_strict}. Same result,
    same error either way. *)

val infer_ndjson_resilient :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?budget:Resilient.budget ->
  ?engine:engine -> ?jobs:int -> ?telemetry:Telemetry.sink ->
  string -> inferred option * Resilient.ingest
(** Guarded variant: corrupted or over-budget documents are quarantined
    (see the returned {!Resilient.ingest}) and inference runs on the
    survivors; [None] when nothing survived. Never raises. [jobs > 1]
    shards ingestion and inference over a domain pool ({!Parallel}) with
    byte-identical results. Under the default [`Streaming] engine each
    shard folds tokens straight into per-document types with a per-shard
    field-name interning scratch, and the returned ingest carries no
    documents. *)

(** {1 Supervised execution with checkpoint/resume}

    Fault-tolerant variants of the resilient pipelines: shards run under
    {!Supervisor.run} (retry with deterministic backoff, cooperative
    per-shard deadlines, graceful degradation), a shard that exhausts its
    attempts is {e quarantined} as one {!Resilient.dead_letter} with
    whole-input coordinates ([kind = Shard _], [report.poisoned] counts
    it) instead of failing the job, and [?checkpoint] journals each
    completed shard so an interrupted run resumes byte-identically
    ({!Checkpoint}). Results are deterministic: same input, same policy,
    same fault plan — same merged output, for any [jobs], interrupted or
    not. Resume matches journal entries by shard coordinates, so use the
    same [jobs] value to actually skip work (a different [jobs] is safe
    but recomputes everything). *)

type supervision = {
  sup_stats : Supervisor.stats;
  sup_resumed : int;  (** shards restored from the checkpoint journal *)
}

val ingest_ndjson_supervised :
  ?budget:Resilient.budget -> ?options:Json.Parser.options ->
  ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string ->
  (Resilient.ingest * supervision, string) result
(** Supervised {!Parallel.ingest}. [inject] is a worker-fault plan keyed
    by {e global} shard index (see {!Chaos.worker_faults}) — consistent
    across retries and resume, and never consulted for journaled shards.
    [Error] only for an unusable journal (wrong job, fingerprint
    mismatch); shard failures never error. *)

val infer_ndjson_supervised :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?budget:Resilient.budget ->
  ?options:Json.Parser.options -> ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string ->
  (inferred option * Resilient.ingest * supervision, string) result
(** Supervised {!infer_ndjson_resilient}: each shard journals its partial
    counting type as [{"counting": ...}] ({!Jtype.Counting.to_json})
    alongside its ingest. The final result is one {!Jtype.Counting.merge_all}
    of the completed shards' partials, with the type read off by erasure,
    so only genuinely-poisoned shards' documents are missing from it.
    Decoding reads only [counting], so a journal whose payloads also carry
    a [jtype] field resumes too; a payload that does not decode (a record
    whose fields are not sorted, for instance) is an [Error]. The journal
    job tag includes [equiv] — a [Kind] journal cannot resume a [Label]
    run — and the journal header records the engine, since a streaming
    journal's ingest records carry no documents: a [`Tree] journal refuses
    to resume a [`Streaming] run and vice versa. *)

val validate_ndjson_supervised :
  ?config:Jsonschema.Validate.config -> ?compiled:bool ->
  ?budget:Resilient.budget ->
  ?options:Json.Parser.options -> ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  (Resilient.ingest * (int * Jsonschema.Validate.error list) list * supervision,
   string)
  result
(** Supervised {!validate_ndjson}: failure indices are into the merged
    surviving-document sequence (the tree engine's [ingest.docs]), exactly
    as the unsupervised path reports them. [compiled] (default [true])
    compiles the schema once and shares the plan across shards and retry
    attempts; the default [`Streaming] engine additionally requires it —
    with [compiled = false], or when the schema fails to compile, the tree
    engine runs regardless of [engine]. The journal job tag fingerprints
    the schema and the journal header records the {e effective} engine, so
    a journal written against one schema or engine refuses to resume a run
    against another ([config] is not fingerprinted — resume with the same
    flags). *)

type checked = {
  chk_inferred : inferred option;
      (** the inferred artifacts, as {!infer_ndjson_supervised} *)
  chk_verdict : Jtype.Contain.verdict option;
      (** containment of the inferred type in the schema; [None] iff no
          document survived ingestion *)
}

val check_ndjson :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?budget:Resilient.budget ->
  ?options:Json.Parser.options -> ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> ?vconfig:Jsonschema.Validate.config ->
  root:Json.Value.t -> string ->
  (checked * Resilient.ingest * supervision, string) result
(** Schema-drift check: infer the type of the corpus (through the full
    supervised/parallel machinery of {!infer_ndjson_supervised}, including
    engine choice and checkpoint/resume), then decide whether that type is
    contained in schema [root] with {!Jtype.Contain.check}. The
    containment step's cost depends on the type and the schema, not the
    corpus size. [vconfig] configures witness verification (notably
    [assert_formats]). Kernel counters [subtype.queries]/[subtype.hits]/
    [subtype.unknown] from the containment step are published to
    [telemetry]. *)

(** {1 Validation pipeline} *)

val validate_collection :
  ?config:Jsonschema.Validate.config -> ?compiled:bool -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> root:Json.Value.t -> Json.Value.t list ->
  (int, (int * Jsonschema.Validate.error list) list) result
(** Validate every document against a JSON Schema document; [Ok n] = all [n]
    valid, otherwise the failing indices with their errors. [jobs > 1]
    validates document batches shard-parallel. [compiled] (default [true])
    shares one {!Jsonschema.Compile} plan across shards; verdicts and
    error reports are byte-identical either way. *)

val validate_ndjson :
  ?config:Jsonschema.Validate.config -> ?compiled:bool ->
  ?budget:Resilient.budget -> ?engine:engine ->
  ?jobs:int -> ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  Resilient.ingest * (int * Jsonschema.Validate.error list) list
(** Guarded validation from raw text: unparseable documents are quarantined
    in the ingest report, surviving documents are validated (indices are
    into the surviving-document sequence — the tree engine's
    [ingest.docs]). Never raises. [jobs > 1] shards both ingestion and
    validation over a domain pool. The default [`Streaming] engine fuses
    parse and validation per shard through the compiled plan's access
    analysis ({!Jsonschema.Compile.run_stream}); it requires [compiled]
    (the default) and a well-formed schema, falling back to the tree
    engine otherwise. *)

val validate_ndjson_strict :
  ?config:Jsonschema.Validate.config -> ?compiled:bool -> ?engine:engine ->
  ?jobs:int -> ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  (int * (int * Jsonschema.Validate.error list) list, string) result
(** Fail-fast validation from raw text: the first unparseable document
    aborts with its (whole-input line/column) error, otherwise
    [Ok (ndocs, failures)] — the document count and the failing indices
    with their errors ([failures = []] means every document validated).
    Engine semantics as in {!validate_ndjson}. *)

(** {1 Dataset profiling} *)

val profile : Json.Value.t list -> Json.Value.t
(** A JSON report: document count, inferred type (paper syntax), mongo-style
    field statistics, skeleton summary, size metrics. The CLI's [stats]
    command prints this. *)

(** {1 Translation pipeline} *)

type translated = {
  avro_schema : Json.Value.t;
  avro_bytes : string;
  columnar_bytes : string;
  json_bytes : int;     (** size of the NDJSON text, for comparison *)
}

val translate :
  ?equiv:Jtype.Merge.equiv -> Json.Value.t list -> (translated, string) result
(** Infer, derive Avro + Spark schemas, encode both ways. *)

val translate_ndjson :
  ?equiv:Jtype.Merge.equiv -> ?budget:Resilient.budget -> string ->
  (translated, string) result option * Resilient.ingest
(** Guarded translation from raw text: ingest under the budget, then
    {!translate} the survivors ([None] when nothing survived). *)
