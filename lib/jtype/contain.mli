(** Type-in-schema containment: is every value of an inferred type
    accepted by a JSON Schema?

    This is the [Jsonschema.Contain] decision procedure of the roadmap; it
    lives in [Jtype] because the dependency arrow points from the type
    algebra to the schema library, not back. [check ~root t] walks the
    schema keyword by keyword against each inhabited union branch of [t]:
    type-kind booleans, folded numeric bounds, [required]/[properties]
    coverage, [enum]/[const] sets, array shape. Schemas inside the exact
    structural fragment (those {!Interop.of_schema} translates)
    short-circuit through the kernel subtype procedure {!Subtype.check}.

    Three-valued and self-verifying: a [Not_contained w] verdict carries a
    concrete member [w] of [t] that {b both} validation engines
    ([Validate.validate] and [Compile.run]) were observed to reject —
    candidate counterexamples that either engine accepts are discarded, and
    if none survives the verdict degrades to [Unknown] with a reason.
    Keywords outside the decided fragment ([pattern], asserted [format],
    [oneOf], [not], [if]/[then]/[else], [patternProperties],
    [propertyNames], [dependencies]) never prove containment: they
    contribute refutation candidates and otherwise report [Unknown].

    Cost is O(|type| · |schema|) plus a handful of candidate validations —
    independent of how much data the type was inferred from, which is the
    point: checking drift of a corpus against a schema without
    re-validating the corpus. *)

type verdict =
  | Contained  (** proved: every value of the type satisfies the schema *)
  | Not_contained of Json.Value.t
      (** witness: a member of the type rejected by both engines *)
  | Unknown of string  (** outside the decided fragment; the reason why *)

val check :
  ?config:Jsonschema.Validate.config -> root:Json.Value.t -> Types.t -> verdict
(** [check ~root t] where [root] is the schema as a JSON document (the
    form [Compile.compile] takes). [config] controls witness verification
    and which keywords assert — with [assert_formats] unset (the default),
    [format] is an annotation and never blocks a proof. An unparseable
    schema is [Unknown], never a guess. *)

val verdict_to_string : verdict -> string

val check_schema : sub:Json.Value.t -> Json.Value.t -> verdict
(** [check_schema ~sub super]: is every instance of the schema [sub] an
    instance of the schema [super]? Both are JSON documents. Full JSON
    Schema containment is EXPTIME-hard, so this decides through {!check}
    when [sub] is in the structural fragment, and otherwise only refutes
    by counterexample:

    + if either side does not parse, [Unknown "schema does not parse: …"];
    + if [sub] is in the fragment, {!check} decides its exact translation
      {!Interop.of_schema} against [super]; a witness is also checked to
      be valid under [sub];
    + if [sub] is outside the fragment, or step 2 answers [Unknown], the
      answer is [Not_contained w] for the first of 200 seeded draws from
      [sub] that [super] rejects, and the [Unknown] otherwise.

    [jsontool compat] prints this verdict in both directions. *)
