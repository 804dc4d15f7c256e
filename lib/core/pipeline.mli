(** End-to-end pipelines combining the toolkit's components — the workflows
    a user of the tutorial's systems would actually run. *)

(** {1 Inference pipeline} *)

type inferred = {
  jtype : Jtype.Types.t;            (** the union-aware structural type *)
  counting : Jtype.Counting.t;      (** with cardinalities *)
  json_schema : Json.Value.t Lazy.t;  (** translated to JSON Schema *)
  typescript : string Lazy.t;         (** TypeScript declarations *)
  swift : string Lazy.t;              (** Swift Codable declarations *)
}
(** The three renderings are built on first {!Lazy.force}, so a run that
    prints the type, the counting type or a drift verdict renders none of
    them. Force them on the domain that made the value. *)

val infer :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?telemetry:Telemetry.sink ->
  Json.Value.t list -> inferred
(** One call from a collection to every schema artifact (default
    equivalence [Kind], default root declaration name ["Root"]): one
    sequential counting fold ({!Jtype.Counting.infer}), with [jtype] read
    off it by {!Jtype.Counting.erase}, which equals
    {!Inference.Parametric.infer}. [telemetry] (default {!Telemetry.nop})
    observes without changing any output: the [infer] span,
    [infer.merge_ops] (documents − 1), one [infer.union_width] sample, and
    the [kernel.*] counter deltas of the call. *)

val validate_collection :
  ?config:Jsonschema.Validate.config -> ?compiled:bool ->
  ?telemetry:Telemetry.sink -> root:Json.Value.t -> Json.Value.t list ->
  (int, (int * Jsonschema.Validate.error list) list) result
(** Validate every document against a JSON Schema document, sequentially;
    [Ok n] = all [n] valid, otherwise the failing indices with their
    errors. [compiled] (default [true]) runs one {!Jsonschema.Compile} plan;
    verdicts and error reports are byte-identical either way. *)

type engine = [ `Tree | `Streaming ]
(** How a shard folds its documents. [`Tree] (the executable spec) parses
    every document into a {!Json.Value.t} and folds over the trees.
    [`Streaming] (the default) fuses parsing with the fold: inference types
    the token stream directly ({!Inference.Streaming.step}) and
    validation walks a compiled plan over it, skimming subtrees the plan
    provably ignores ({!Jsonschema.Compile.run_stream}). The two engines
    produce byte-identical inferred types, verdicts, error lists, dead
    letters and journal payloads — enforced by a differential QCheck
    oracle — and differ only in cost and in the [stream.*] telemetry the
    streaming engine adds. *)

(** {1 The sharded executor}

    Every NDJSON job — ingestion, inference, validation and the drift
    check — is one sharded run on one executor, {!run_shards}. It cuts the
    text at newlines ({!Parallel.shards}), folds each shard under
    {!Supervisor.run} on up to [jobs] domains ({!Parallel.run}, the
    calling domain among them), journals each completed shard when given a
    checkpoint, and merges once. A job differs from another only in its
    {!fold}; supervision is a {!Supervisor.policy} plus an optional
    journal. The default policy is {!Supervisor.no_retry} with no journal,
    which is what an unsupervised run is: every shard runs once, and a
    shard whose fold raises becomes a [shard:crash] dead letter instead of
    an exception.

    Results are deterministic, and on one-document-per-line input
    byte-identical to the sequential scan for any [jobs]: same input, same
    policy, same fault plan — same merged output, interrupted and resumed
    or not. {!Parallel.shards} cuts at any newline, so a valid document
    written over several lines can be split where a shard is cut, and its
    pieces then fail as documents of their own. A shard that exhausts its
    attempts is {e quarantined} as one {!Resilient.dead_letter} with
    whole-input coordinates ([kind = Shard _], [report.poisoned] counts
    it); the job's result then lacks exactly that shard's documents.
    Resume matches journal entries by shard coordinates, so use the same
    [jobs] value to actually skip work (a different [jobs] is safe but
    recomputes everything). *)

type supervision = {
  sup_stats : Supervisor.stats;
      (** the supervisor's counts over the shards this run executed *)
  sup_resumed : int;  (** shards restored from the checkpoint journal *)
}

type ('s, 'p) fold = {
  init : unit -> 's;
      (** a fresh state for one shard attempt, made on the domain that runs
          it, so it may carry mutable per-shard scratch; a retried attempt
          starts from a new one *)
  step :
    's -> options:Json.Parser.options -> telemetry:Telemetry.sink ->
    string -> pos:int -> (int, Json.Parser.error) result;
      (** {!Resilient.scan}'s step: takes the document at [pos] into the
          state and returns the offset one past it, or the parse error *)
  finish : 's -> 'p;
      (** the state, after the shard's last document, to the shard's
          partial result *)
  encode : 'p -> Json.Value.t;
  decode : Json.Value.t -> ('p, string) result;
      (** the partial's journal codec; [decode (encode p) = Ok p] is what
          makes a resumed run byte-identical *)
}
(** What a job computes per shard: a fold that takes each document as it is
    scanned, so a shard keeps only its state, never a list of its
    documents (unless its output is that list, as ingestion's is). *)

val run_shards :
  ?budget:Resilient.budget -> ?options:Json.Parser.options ->
  ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> job:string -> engine:string ->
  ('a, 'p) fold -> string ->
  ((int * 'p) list * Resilient.ingest * supervision, string) result
(** The executor. Splits [text] into at most [jobs] (default 1) shards —
    one whole-input shard under a [max_docs] budget, which is a global
    cap — and runs [fold] on each pending one under {!Supervisor.run} with
    [policy] (default {!Supervisor.no_retry}): each attempt makes a fresh
    state with [init], runs {!Resilient.scan} under [budget] (default
    {!Resilient.default_budget}) with [step] on it, then [finish]. A shard
    that covers the whole input is
    read in place, never copied. [inject] is a worker-fault plan keyed by
    {e global} shard index (see {!Chaos.worker_faults}), consistent across
    retries and resume and never consulted for journaled shards.

    With [checkpoint], each completed shard is journaled ({!Checkpoint})
    under the tag [job] (["kind"] or ["kind:qualifier"]) and [engine]: its
    dead letters and report, with no documents, and its encoded partial.
    With [resume] (default [false]) the journal's entries are decoded
    before any shard runs and replace their shards' work.

    Returns the completed shards' document counts and partials in shard
    order, and one ingest: dead letters of every shard (a poisoned shard's
    letter included) by byte offset, reports summed, [docs = []]. [Error]
    only for an unusable journal (wrong job, engine or input; a payload
    that does not decode; a file that cannot be opened). [telemetry]
    receives the ingest and parser metrics of every attempt, one
    [<kind>.shard] span per attempt, the {!Supervisor.run} counters, and
    [checkpoint.resumed_shards] when nonzero. Its key set does not depend
    on [jobs] beyond the counters recorded only when nonzero. *)

val strict :
  ('a * Resilient.ingest * supervision, string) result ->
  ('a * Resilient.ingest * supervision, string) result
(** The fail-fast mode of any run: its first dead letter in input order
    becomes its [Error], with the letter's whole-input line/column message
    — the error {!Resilient.parse_ndjson_strict} reports, and for a
    poisoned shard its one-line poison message. Run strict jobs under
    {!Resilient.unbounded_budget}. *)

(** {1 One run per job kind}

    Each takes the executor's [?budget ?options ?policy ?inject
    ?checkpoint ?resume ?jobs ?telemetry] and returns the job's value, the
    merged ingest and the supervision counts. *)

val ingest_ndjson :
  ?budget:Resilient.budget -> ?options:Json.Parser.options ->
  ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string ->
  (Json.Value.t list * Resilient.ingest * supervision, string) result
(** Guarded ingestion: the surviving documents in input order, and the
    dead letters and report {!Resilient.ingest} produces. A journal entry's
    payload is the shard's documents. Spans: [ingest.shard],
    [ingest.merge]. *)

val infer_ndjson :
  ?equiv:Jtype.Merge.equiv -> ?name:string -> ?budget:Resilient.budget ->
  ?options:Json.Parser.options -> ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> string ->
  (inferred * Resilient.ingest * supervision, string) result
(** Inference over the surviving documents: each shard runs
    {!infer_fold}, one partial per shard crosses domains, and the result is
    one {!Jtype.Counting.merge_all} of the partials with the type read off
    by erasure. With no survivors the type
    is the empty one ([Bot]); read [report.ok] to tell. A journal entry's
    payload is [{"counting": ...}]; decoding reads only [counting], so a
    payload that also carries [jtype] resumes too, and one that does not
    decode (a record whose fields are not sorted), or whose counting type
    is not canonical ([merge_all ~equiv [c] <> c], e.g. a union nested in
    a union), is an [Error]. The job
    tag includes [equiv]. Telemetry adds [infer.merge_ops] (documents − 1),
    one [infer.union_width] sample, the [infer.merge] span and the
    [kernel.*] counter deltas of the run. *)

type infer_state
(** A shard attempt's inference state: a counting accumulator, and for the
    [`Streaming] engine the shard's shape cache. *)

val infer_fold :
  equiv:Jtype.Merge.equiv -> engine -> (infer_state, Jtype.Counting.t) fold
(** The inference job's shard fold. Each document goes into the shard's
    {!Jtype.Counting} accumulator as it is typed: [`Tree] parses it and
    adds its {!Jtype.Counting.of_value}; [`Streaming] runs
    {!Inference.Streaming.step}, which types it from its tokens and adds a
    repeated shape once, with its multiplicity. Either way the partial is
    {!Jtype.Counting.infer} of the shard's documents, and no per-document
    value survives its document. *)

val validate_ndjson :
  ?config:Jsonschema.Validate.config -> ?compiled:bool ->
  ?budget:Resilient.budget -> ?options:Json.Parser.options ->
  ?policy:Supervisor.policy ->
  ?inject:(shard:int -> attempt:int -> string option) ->
  ?checkpoint:string -> ?resume:bool -> ?engine:engine -> ?jobs:int ->
  ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  ((int * Jsonschema.Validate.error list) list * Resilient.ingest * supervision,
   string)
  result
(** Validation of the surviving documents: the failing indices (into the
    surviving-document sequence) with their errors. [compiled] (default
    [true]) compiles the schema once and shares the plan across shards and
    attempts; the [`Streaming] engine needs it, so with [compiled = false],
    or a schema that does not compile, the tree engine runs regardless of
    [engine]. Each shard reports indices local to it, and the merge shifts
    them past the preceding shards' documents. A journal entry's payload
    is the shard's failure list. The job tag fingerprints the schema and
    names each verdict-deciding [config] field ([assert_formats],
    [max_ref_expansions], [max_depth]) that differs from
    {!Jsonschema.Validate.default_config}, so a journal resumes only under
    the settings that wrote it; the journal header records the engine that
    ran. Span: [validate.merge]. *)

val validate_ndjson_strict :
  ?config:Jsonschema.Validate.config -> ?compiled:bool -> ?engine:engine ->
  ?jobs:int -> ?telemetry:Telemetry.sink -> root:Json.Value.t -> string ->
  (int * (int * Jsonschema.Validate.error list) list, string) result
(** {!strict} {!validate_ndjson} under {!Resilient.unbounded_budget}:
    [Ok (ndocs, failures)], or the first unparseable document's error. *)

type checked = {
  chk_inferred : inferred option;
      (** the inferred artifacts, as {!infer_ndjson}; [None] iff no
          document survived ingestion *)
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
(** Schema-drift check: the {!infer_ndjson} run (its journal included),
    then whether the inferred type is contained in schema [root]
    ({!Jtype.Contain.check}). The containment step's cost depends on the
    type and the schema, not the corpus size. [vconfig] configures witness
    verification (notably [assert_formats]). The inference and the
    containment step run under one kernel-counter bridge, so the
    [kernel.*] and [subtype.queries]/[subtype.hits]/[subtype.unknown]
    deltas published to [telemetry] cover both (each only when
    nonzero). *)

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
