(** Guarded NDJSON ingestion: resource budgets, per-document quarantine,
    and fast-path degradation.

    Production JSON pipelines meet "massive and messy" data: one corrupted
    line, one pathologically deep document, or one multi-gigabyte record
    must not abort a batch or blow the stack. This layer is the single
    entry point the pipelines ({!Pipeline}) and the CLI route raw text
    through. It

    - enforces {e resource budgets} (bytes/doc, nodes/doc, string length,
      nesting depth, document count) via the typed
      {!Json.Parser.error_kind} machinery — budget violations are values,
      never exceptions;
    - {e quarantines} failing documents as dead letters instead of
      erroring, resuming at the next line boundary, and returns an
      {!report} alongside the surviving documents;
    - {e degrades} the Mison fast path per record to the full parser
      (see {!Fastjson.Mison.parse_line}), counting fallbacks instead of
      failing the batch. *)

type budget = {
  max_doc_bytes : int option;    (** byte span one document may occupy *)
  max_nodes : int option;        (** JSON nodes per document *)
  max_string_bytes : int option; (** unescaped length of one string *)
  max_depth : int;               (** nesting depth *)
  max_docs : int option;         (** documents ingested per batch *)
}

val default_budget : budget
(** Generous production defaults: 8 MiB/doc, 1M nodes, 1 MiB strings,
    depth 256, unlimited documents. *)

val unbounded_budget : budget
(** No caps beyond the parser's stock depth limit — the pre-resilient
    behaviour, used by the strict compatibility path. *)

val parser_options : ?base:Json.Parser.options -> budget -> Json.Parser.options
(** Lower a budget onto parser options ([base] defaults to
    {!Json.Parser.default_options}; [max_docs] is enforced here, not by the
    parser). *)

type fault_kind =
  | Parse of Json.Parser.error_kind
      (** one document failed: syntax fault vs. which budget *)
  | Shard of string
      (** a whole supervised shard was poisoned; the label is the
          supervisor's failure class ("timeout", "crash", "fault") *)

val kind_name : fault_kind -> string
(** Stable flag-style rendering: ["syntax"], ["budget:max-depth"],
    ["shard:timeout"], ... *)

val kind_of_name : string -> fault_kind option
(** Inverse of {!kind_name} (used by the checkpoint journal). *)

type dead_letter = {
  line : int;         (** 1-based line the document started on *)
  byte_offset : int;  (** offset of the document's first byte *)
  error : string;     (** human-readable, with global line/column *)
  kind : fault_kind;  (** what killed the span *)
  cause : string;
      (** attribution: defaults to {!kind_name}; rewritten to a fault site
          id when {!Chaos.attribute} proves the fault was injected, or to
          the supervisor's failure description for poisoned shards —
          quarantine triage can tell a real corpus problem from a drill *)
  attempts : int;
      (** execution attempts made on the shard that produced this letter
          (1 = no retry); for a poisoned shard this is the exhausted
          attempt budget, distinguishing transient-exhausted from
          first-try-permanent failures *)
  raw_prefix : string;  (** first bytes of the offending span, for triage *)
}

type report = {
  ok : int;            (** documents ingested *)
  quarantined : int;   (** syntax faults turned into dead letters *)
  budget_killed : int; (** budget violations turned into dead letters *)
  budget_causes : (Json.Parser.budget_violation * int) list;
      (** [budget_killed] broken down by which cap was blown, sorted by
          {!Json.Parser.violation_name} — a depth bomb and an oversized
          document are different operational problems, so the aggregate
          alone is not actionable *)
  poisoned : int;      (** supervised shards that exhausted every retry *)
  truncated : bool;    (** the [max_docs] cap cut ingestion short *)
}

val empty_report : report

val merge_causes :
  (Json.Parser.budget_violation * int) list ->
  (Json.Parser.budget_violation * int) list ->
  (Json.Parser.budget_violation * int) list
(** Sum two cause breakdowns (used when merging shard reports). *)

type ingest = {
  docs : Json.Value.t list;
  dead : dead_letter list;
  report : report;
}

val scan :
  ?budget:budget -> ?options:Json.Parser.options ->
  ?first_line:int -> ?base_offset:int ->
  ?attempt:int -> ?tick:(unit -> unit) -> ?telemetry:Telemetry.sink ->
  step:
    (options:Json.Parser.options -> telemetry:Telemetry.sink ->
     string -> pos:int -> (int, Json.Parser.error) result) ->
  string -> dead_letter list * report
(** The ingestion loop, generic over what a document is taken into. [step]
    is handed the resolved parser options (budget lowered, trailing input
    allowed) and must consume exactly one document starting at [pos],
    taking it into whatever state it closes over and returning the offset
    one past it — or, taking nothing, the error
    {!Json.Parser.parse_substring} would report there. [step] sees each
    document once, in input order, and the loop keeps nothing of it: a fold
    that adds each document to an accumulator runs in the memory of its
    accumulator. The scanning, budget, quarantine, dead-letter and
    telemetry behaviour is exactly {!ingest}'s. The streaming engine
    ({!Pipeline}) plugs in token-level steps ({!Inference.Streaming.step},
    {!Jsonschema.Compile.run_stream}) whose error behaviour is
    byte-identical by contract, so dead letters and reports cannot differ
    between engines.

    Containment is per line. A failing document whose error lies past the
    end of the line it starts on (a line that is a valid JSON prefix, such
    as [[1,], reads on into the next one) is reported with the error of
    that line alone — its bytes through the newline, re-parsed by
    {!Json.Parser.parse_substring} (never by [step], which by its contract
    fails the same way), exactly as a shard cut after it presents them —
    and scanning resumes on the next line; the failure is counted once. So
    the dead letters do not depend on where an input is cut into shards.
    Valid multi-line documents still parse anywhere, but a failing one,
    malformed or over budget, becomes a syntax error on its first line,
    and its later lines are scanned as documents of their own.

    Line numbers are counted only up to the start of each dead letter
    (and of the [max_docs] cut), so the loop reads no byte of a healthy
    document beyond what [step] reads. *)

val ingest_with :
  ?budget:budget -> ?options:Json.Parser.options ->
  ?first_line:int -> ?base_offset:int ->
  ?attempt:int -> ?tick:(unit -> unit) -> ?telemetry:Telemetry.sink ->
  parse_doc:
    (options:Json.Parser.options -> telemetry:Telemetry.sink ->
     string -> pos:int -> ('a * int, Json.Parser.error) result) ->
  string -> 'a list * dead_letter list * report
(** {!scan} with a step that keeps each document's payload: [parse_doc]
    returns the payload and the offset one past the document, and the
    payloads come back in input order. With [parse_doc =
    Json.Parser.parse_substring] the payloads are the parsed documents and
    this {e is} {!ingest}. *)

val ingest :
  ?budget:budget -> ?options:Json.Parser.options ->
  ?first_line:int -> ?base_offset:int ->
  ?attempt:int -> ?tick:(unit -> unit) -> ?telemetry:Telemetry.sink ->
  string -> ingest
(** Total: never raises, never errors — with one deliberate exception:
    whatever [tick] raises propagates. Parses an NDJSON / concatenated-JSON
    text document by document under [budget]; a failing document becomes a
    {!dead_letter} and scanning resumes after the next newline. [options]
    supplies non-budget knobs (duplicate-key policy, ...); its budget fields
    are overridden by [budget]. [first_line] (default 1) and [base_offset]
    (default 0) shift reported line numbers and byte offsets — used by the
    sharded runs of {!Pipeline} so a shard of a larger input produces dead
    letters in the coordinates of the whole input. [attempt] (default 1)
    stamps every dead letter's [attempts] field — the supervisor passes the
    current retry attempt so quarantine records carry their retry history.
    [tick]
    (default a no-op) is called once per document boundary; {!Supervisor}
    installs a deadline check here, making shard wall-clock timeouts
    cooperative instead of preemptive. [telemetry] (default
    {!Telemetry.nop}) receives [ingest.docs_ok], [ingest.docs_quarantined],
    [ingest.budget.<cap>] counters plus the underlying parser's [parse.*]
    metrics. *)

val raw_prefix : string -> lo:int -> hi:int -> string
(** The dead-letter [raw_prefix] of the span [lo, hi) of a text: at most
    its first 80 bytes, with newlines and carriage returns blanked. *)

val parse_ndjson_strict :
  ?budget:budget -> ?options:Json.Parser.options -> string ->
  (Json.Value.t list, string) result
(** Fail-fast compatibility mode for the classic pipeline entry points:
    same scanning as {!ingest} (default budget {!unbounded_budget}) but the
    first dead letter aborts with its error. *)

(** {1 Fast-path projection with degradation} *)

type projected = {
  rows : (string * Json.Value.t) list list;  (** one row per surviving line *)
  proj_dead : dead_letter list;
  proj_report : report;
  mison : Fastjson.Mison.stats;
      (** includes [full_parse_fallbacks] — records rescued by the full
          parser after a fast-path failure *)
}

val project :
  ?budget:budget -> ?telemetry:Telemetry.sink -> fields:string list ->
  string -> projected
(** Mison projection over NDJSON with quarantine: each line goes through
    {!Fastjson.Mison.parse_line} (fast path, then full-parser fallback);
    lines failing both paths are quarantined, never raised. [telemetry]
    receives the ingest counters above plus {!Fastjson.Mison}'s
    pruned-vs-materialized accounting. *)

(** {1 Reports as JSON} *)

val report_to_json : report -> Json.Value.t
val dead_letter_to_json : dead_letter -> Json.Value.t

(** {1 Round trips}

    Exact inverses of the renderings above ([x_of_json (x_to_json v) = Ok
    v]); {!Checkpoint} journals completed-shard ingest results in this form
    so a resumed job reproduces the uninterrupted output byte-identically. *)

val report_of_json : Json.Value.t -> (report, string) result
val dead_letter_of_json : Json.Value.t -> (dead_letter, string) result
val ingest_to_json : ingest -> Json.Value.t
val ingest_of_json : Json.Value.t -> (ingest, string) result
