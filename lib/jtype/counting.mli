(** Counting types (Baazizi et al., DBPL'17): the type algebra annotated
    with cardinalities.

    Every node records how many values of the collection it described;
    record fields additionally record in how many of those records they
    occurred, so optionality becomes quantitative ("present in 93% of
    tweets") instead of a bare [?]. Counting merge is the same fusion as
    {!Merge.merge} with counts added pointwise, so it inherits
    associativity/commutativity — the distribution property E3 tests. *)

type t =
  | CNull of int
  | CBool of int
  | CInt of int
  | CNum of int
  | CStr of int
  | CArr of int * t  (** count of arrays, element type with element counts *)
  | CRec of int * cfield list  (** count of records; fields sorted by name *)
  | CUnion of t list  (** branches with pairwise-unfusable types *)
  | CAny of int
  | CBot

and cfield = { fname : string; occurs : int; ftype : t }
(** [occurs] ≤ the enclosing record count; strict inequality = optional. *)

val count : t -> int
(** Total number of values described (sum over union branches). *)

val of_value : equiv:Merge.equiv -> Json.Value.t -> t
(** Counting typing of one value: every count is 1. The equivalence governs
    how the element types of one array fuse, exactly as in {!Merge}; the
    elements of an array are fused by one {!merge_all}. *)

val merge : equiv:Merge.equiv -> t -> t -> t
(** The paper's binary fusion: the branches of both sides are fused by
    class (the kind, or the label set under [Label]) and counts add within
    a class. It re-fuses the whole union on every call, so a fold of it
    over N values costs N times the width of the type built so far; no
    production path calls it. It stays as the reference {!merge_all} is
    tested against. *)

val merge_all : equiv:Merge.equiv -> t list -> t
(** [merge_all ~equiv ts] equals [List.fold_left (merge ~equiv) CBot ts]
    on canonical values, in time proportional to the total size of [ts]
    plus one sort of the result: a mutable accumulator keeps one slot per
    fusion class, record fields by name and record branches by label set,
    and is frozen once into the canonical value (fields sorted by
    [String.compare], union branches by [Stdlib.compare], no empty or
    one-branch union, no union inside a union). There is no shortcut for
    one value, so [merge_all ~equiv [c] = c] holds exactly when [c] is
    canonical, which every value {!of_value} and [merge_all] build is. *)

val infer : equiv:Merge.equiv -> Json.Value.t list -> t
(** [merge_all] of the documents' {!of_value}: linear in the corpus size
    under both equivalences. *)

val scale : int -> t -> t
(** [scale k t] multiplies every count in [t] by [k]: the counting type of
    a collection holding each value of [t]'s collection [k] times. On the
    canonical values {!of_value} and {!merge} build, [scale k t] equals the
    merge of [k] copies of [t], so a reduce may merge each distinct value
    once, scaled by its multiplicity, instead of once per occurrence.
    @raise Invalid_argument if [k < 1]. *)

val erase : t -> Types.t
(** Forget counts; field optional iff [occurs < record count]. *)

val to_string : t -> string
(** Concrete syntax with counts, e.g. [{a(980): Int(980)}(1000)]. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.Value.t
(** Machine-readable rendering (used by the CLI): every node carries its
    count, records list their fields with occurrence counts. *)

val field_probability : t -> string list -> float option
(** [field_probability t path] is the empirical probability that the
    record field at [path] (a chain of field names from the root) occurs,
    e.g. [["user"; "verified"]]. [None] if the path never occurs. *)

val of_json : Json.Value.t -> (t, string) result
(** Inverse of {!to_json} ([of_json (to_json t) = Ok t]); lets
    {!Core.Checkpoint} journal and resume partial counting merges. JSON
    that {!to_json} never emits is an [Error], in particular a record
    whose field names are not strictly increasing under [String.compare].
    Other non-canonical values (a union nested in a union, say) decode;
    a caller that needs canonical input checks [merge_all ~equiv [c] = c]. *)
