(** Compiled validation plans.

    A one-time lowering of a schema document into an executable plan:
    [$ref] targets resolved once into a memoized target table (cycles
    detected during lowering), per-keyword checks specialized into
    closures, trivially-true subschemas pruned. Running a plan is
    *byte-identical* to {!Validate.validate} — same verdicts, same error
    records in the same order, same [validate.kw.*] telemetry — it just
    skips the per-document schema re-parse, keyword probing, and [$ref]
    string resolution. The conformance suite and the QCheck differential
    oracle under [test/] enforce the equivalence.

    Plans are immutable and domain-safe: compile once, share across
    domains. *)

type error = Validate.error

type plan
(** An immutable compiled plan; safe to share across domains. *)

val compile :
  ?telemetry:Telemetry.sink -> Json.Value.t -> (plan, error list) result
(** Lower a schema document into a plan. [Error] carries exactly the error
    list {!Validate.validate} would return for the malformed document.
    Emits [validate.compile_ms] and [validate.plan.nodes] to [telemetry]. *)

val run :
  ?config:Validate.config -> plan -> Json.Value.t -> (unit, error list) result
(** Validate one instance. Plans are config-independent: [config] supplies
    format assertion, fuel/depth budgets, and the telemetry sink at run
    time, so one plan serves any config. *)

val is_valid : ?config:Validate.config -> plan -> Json.Value.t -> bool

type scratch
(** Per-domain state of {!run_stream}'s verdict cache: a {!Json.Shape}
    intern table, shape buffers and bounded cache. Its entries hold for
    one plan and one config; handing it another empties it. Not
    thread-safe — one per domain. *)

val scratch : unit -> scratch

val run_stream :
  ?config:Validate.config ->
  ?options:Json.Parser.options ->
  ?telemetry:Telemetry.sink ->
  ?scratch:scratch ->
  plan ->
  string ->
  pos:int ->
  ((unit, error list) result * int, Json.Parser.error) result
(** Parse-and-validate one document starting at byte [pos], fused: the
    token stream is walked directly against the plan's compile-time access
    analysis, materializing only the parts some keyword can observe.
    Subtrees the plan provably ignores — properties outside the first-wins
    table when [additionalProperties] is trivially true or absent, array
    tails past [items] tuple bounds with no [additionalItems], string
    payloads with no string-content keyword — are validated and skipped at
    token level ({!Json.Shape.skip}) without allocation. The walk reads
    {!Json.Lexer.skim} tokens through the tree parser's
    {!Json.Parser.cursor}, which carries its node, byte and depth
    accounting, hands every fully read subtree to the tree walk
    ({!Json.Parser.read}), and takes a string's contents from its token's
    span only where the plan reads them. Under the [Reject] duplicate-key
    policy it walks the whole document (so [stream.skipped_bytes] stays
    0), since only a walked object is checked for repeated keys.

    With a [scratch], a plan whose keywords read only kinds, keys and
    counts ([type], the object and array structure keywords, boolean
    schemas and the combinators over them; no [enum], [const], numeric or
    string keyword, [format], [uniqueItems] or [$ref]) validates each
    distinct document shape once: one {!Json.Lexer.skim} pass records the
    shape, following the access tree, and a repeat is answered from the
    scratch's cache, replaying the keyword counters its first run emitted.
    The [Reject] duplicate-key policy and plans outside that fragment take
    the walk alone.

    Byte-identical to [Json.Parser.parse_substring] followed by {!run}:
    same parse errors (position/message/kind and [parse.*] telemetry on
    [telemetry]), same verdicts, error lists, and [validate.kw.*] counters
    (on [config]'s sink), enforced by the differential oracle. Extra
    telemetry on success: [stream.tokens] and [stream.skipped_bytes], and
    with a scratch serving the plan one of [stream.shape.hits] (answered
    from the cache) / [stream.shape.misses] (validated by the walk).
    Returns the verdict and the offset one past the document. *)

(** {2 Plan shape} *)

val nodes : plan -> int
(** Subschemas lowered, including [$ref] target bodies. *)

val pruned : plan -> int
(** Trivially-true subschemas compiled to a constant check. *)

val ref_targets : plan -> int
(** Distinct [$ref] targets resolved into the plan. *)

val cycles : plan -> int
(** Back-edges found in the [$ref] graph during lowering. Cyclic plans
    still terminate per document through the runtime fuel budget — the
    budget's error is part of the interpreter-equivalence contract. *)
