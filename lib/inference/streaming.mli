(** Token-level fused inference (the streaming engine's map step).

    Mison's observation — type-aware parsers win by not building what
    downstream doesn't need — applied to parametric inference: the typing
    judgment of a document depends only on its shape, so the map step of the
    Baazizi et al. fold never needed the value tree. Each document is
    skimmed once — string payloads are validated, not unescaped; field
    names are interned in a per-shard {!scratch} table; no intermediate
    {!Json.Value.t} exists — and its shape is recorded: token kinds and
    field names. A shape seen for the first time is walked straight into
    a {!Jtype.Counting} accumulator through its builder; no per-document
    counting value is built. Repeats are only counted, by a bounded cache
    that switches itself off on inputs whose shapes do not repeat.

    A shard folds its documents into one counting accumulator as they are
    taken ({!shard}, {!step}, {!finish}), the fusion being associative and
    commutative; no per-document value or list is kept.

    The contract is byte-identity with the tree engine: same types, same
    errors (position, message, kind), same [parse.*] telemetry — enforced by
    sharing the parser's own budget arithmetic and error machinery and by a
    differential QCheck oracle. Documents the walker cannot handle are
    re-parsed with the tree parser, so failure reporting is always the
    canonical one. *)

type scratch
(** Per-domain scratch state reused across the documents of a shard: a
    {!Json.Shape.t} (a field-name interning table, so a wide-record corpus
    allocates each distinct key once per shard instead of once per
    document, and the shape cache) and the workspace of the walk from a
    shape into an accumulator. Not thread-safe — one per domain. *)

val scratch : unit -> scratch

val infer_tokens :
  ?options:Json.Parser.options ->
  ?telemetry:Telemetry.sink ->
  ?scratch:scratch ->
  equiv:Jtype.Merge.equiv ->
  string ->
  pos:int ->
  ((Jtype.Types.t * Jtype.Counting.t) * int, Json.Parser.error) result
(** Type one document starting at byte [pos] on its own: [(Counting.erase
    c, c)] for [c = Counting.of_value ~equiv v] and the [v] that
    {!Json.Parser.parse_substring} would return, plus the offset one past
    the document — or exactly that parse's error. It walks the recorded
    shape into an accumulator of its own, as {!step} does on a miss (and,
    since a cache entry keeps no value, on a hit too), then freezes and
    erases it; the pipeline never calls it.
    Telemetry: the parser's per-document [parse.*] family as emitted by
    [parse_substring], plus [stream.tokens] (tokens consumed),
    [stream.scratch.reuse] (interning hits) and one of [stream.shape.hits]
    / [stream.shape.misses] (answered from the shape cache / typed from
    the shape) on success. *)

(** {1 A shard's fold} *)

type shard
(** One shard's scratch plus a {!Jtype.Counting.acc}. Not thread-safe —
    made on the domain that runs the shard, one per attempt. *)

val shard : equiv:Jtype.Merge.equiv -> unit -> shard

val step :
  ?options:Json.Parser.options ->
  ?telemetry:Telemetry.sink ->
  shard ->
  string ->
  pos:int ->
  (int, Json.Parser.error) result
(** Take the document at [pos] into the shard's accumulator; the offset
    one past it, or the parse error (the document is then not taken).

    A shape the cache does not know is resolved first, in one pass over
    the recorded shape: each record's repeated keys under the
    duplicate-key policy ([Keep_first] keeps the first occurrence,
    [Keep_last] and [Keep_all] the last, the losing values are skipped)
    and, under [Label], its label set. A shape [Reject] refuses takes the
    tree parser's canonical error. Only then is the shape walked into the
    accumulator and remembered with no hits, so no path leaves part of a
    document added. A shape the cache knows only bumps its entry's hit
    count. An entry keeps nothing else: when it leaves the cache (the
    wholesale reset, the switch-off, {!finish}), the cache hands over its
    shape and the entry walks it into the accumulator once with
    multiplicity [hits]. Same telemetry as {!infer_tokens}. *)

val finish : shard -> Jtype.Counting.t
(** Settle the cache's hit counts and freeze the accumulator:
    [Counting.merge_all ~equiv] of the [of_value] of every document the
    shard took, in any order. *)
