(** Bridging the type algebra and JSON Schema.

    [to_schema] targets the union-free-friendly fragment: records become
    [type: object] with [properties]/[required]/[additionalProperties:
    false], arrays [type: array] + [items], unions [anyOf]. [of_schema]
    reads that structural fragment back exactly and refuses every other
    schema; it is the one definition of the fragment that {!Contain}
    decides through {!Subtype}. *)

val to_schema : Types.t -> Jsonschema.Schema.t
val to_schema_json : Types.t -> Json.Value.t

val of_schema : Jsonschema.Schema.t -> Types.t option
(** The exact translation of the structural fragment: [Some t] for a
    boolean schema, or for a node whose only keywords are one [type] (or
    none) plus

    - nothing else for a scalar [type];
    - [items] with one schema for [array];
    - [properties], and [required] ⊆ [properties], under
      [additionalProperties: false] for [object];
    - [anyOf] when there is no [type],

    with every subschema in the fragment too (annotations are ignored).
    [None] for every other schema: open objects, tuples, value keywords,
    [$ref], [allOf]/[oneOf]/[not] and multi-kind [type] lists.

    On [Some t] a value satisfies the schema iff it has type [t]
    ({!Typecheck.member}), up to how numbers are written: [integer] also
    accepts an integral float such as [2.0], which [Int] does not. The
    schema accepts a value iff [t] does once such floats are read as the
    integers they equal, and reading them so never takes a value out of a
    type; so an inclusion {!Subtype} proves between translations holds
    between the schemas. {!Contain} re-validates witnesses before it
    reports them. *)
