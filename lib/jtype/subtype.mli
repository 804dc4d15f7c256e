(** Coinductive subtyping over the hash-consed kernel, with witnesses.

    [check a b] decides whether every value of type [a] also has type [b]
    under the exact denotational semantics of {!Typecheck.member} (closed
    records, [Int] ⊆ [Num], unions as set union). It is the toolkit's one
    inclusion check: {!Contain} (and through it [jsontool check] and
    [jsontool compat]) and the query typer run on it. A negative answer
    carries a {b witness}: a concrete JSON value [w] with [member w a] and
    [not (member w b)], verified before it is returned. When the decided
    fragment runs out — distribution of a record type over a union of
    record types is the one genuinely hard case — the verdict is
    [Unknown] with the reason, never an unsound [Sub].

    The procedure is memoized per domain on interned node-id pairs
    [(Types.id a, Types.id b)]: wide union types and repeated queries are
    O(1) after first computation, and an in-flight pair re-entered during
    its own computation is answered [Sub] (the coinductive hypothesis), so
    the procedure terminates even on cyclic type graphs should the kernel
    ever intern them. Counters [subtype.queries], [subtype.hits] and
    [subtype.unknown] feed {!Kernel.totals} and from there [--stats-json]. *)

type verdict =
  | Sub  (** every value of [a] is a value of [b] *)
  | Not_sub of Json.Value.t
      (** a verified witness: a member of [a] that [b] rejects *)
  | Unknown of string  (** outside the decided fragment; the reason why *)

val check : Types.t -> Types.t -> verdict
(** [check a b] — three-valued, sound in both directions: [Sub] only if
    [a] ⊆ [b]; [Not_sub w] only with a witness that passed the
    [member w a && not (member w b)] self-check. *)

val is_sub : Types.t -> Types.t -> bool
(** [is_sub a b] is [check a b = Sub]. *)

val inhabitant : Types.t -> Json.Value.t option
(** A canonical member of the type, or [None] iff the type is empty
    ([Bot], or a record with an uninhabited mandatory field, ...).
    Records materialize mandatory fields only. *)

val inhabited : Types.t -> bool

val verdict_to_string : verdict -> string
