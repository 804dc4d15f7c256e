(** Token-level fused inference (the streaming engine's map step).

    Mison's observation — type-aware parsers win by not building what
    downstream doesn't need — applied to parametric inference: the typing
    judgment of a document depends only on its shape, so the map step of the
    Baazizi et al. fold never needed the value tree. {!infer_tokens} skims
    each document once — string payloads are validated, not unescaped;
    field names are interned in a per-shard {!scratch} table; no
    intermediate {!Json.Value.t} exists — and records its shape: token
    kinds and field names. Each distinct shape is typed into hash-consed
    {!Jtype.Types} and {!Jtype.Counting} nodes once per scratch; repeats
    are answered from a bounded cache that switches itself off on inputs
    whose shapes do not repeat.

    The contract is byte-identity with the tree engine: same types, same
    errors (position, message, kind), same [parse.*] telemetry — enforced by
    sharing the parser's own budget arithmetic and error machinery and by a
    differential QCheck oracle. Documents the walker cannot handle are
    re-parsed with the tree parser, so failure reporting is always the
    canonical one. *)

type scratch
(** Per-domain scratch state reused across the documents of a shard, a
    {!Json.Shape.t}: a field-name interning table, so a wide-record corpus
    allocates each distinct key once per shard instead of once per
    document, and the shape cache. Not thread-safe — one per domain. *)

val scratch : unit -> scratch

val infer_tokens :
  ?options:Json.Parser.options ->
  ?telemetry:Telemetry.sink ->
  ?scratch:scratch ->
  equiv:Jtype.Merge.equiv ->
  string ->
  pos:int ->
  ((Jtype.Types.t * Jtype.Counting.t) * int, Json.Parser.error) result
(** Type one document starting at byte [pos]: exactly
    [(Types.of_value v, Counting.of_value ~equiv v)] for the [v] that
    {!Json.Parser.parse_substring} would return, plus the offset one past
    the document — or exactly that parse's error. Telemetry: the parser's
    per-document [parse.*] family as emitted by [parse_substring], plus
    [stream.tokens] (tokens consumed), [stream.scratch.reuse] (interning
    hits) and one of [stream.shape.hits] / [stream.shape.misses] (answered
    from the shape cache / typed from the shape) on success. *)
