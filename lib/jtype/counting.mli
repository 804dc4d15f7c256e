(** Counting types (Baazizi et al., DBPL'17): the type algebra annotated
    with cardinalities, and the one fusion core of parametric inference.

    Every node records how many values of the collection it described;
    record fields additionally record in how many of those records they
    occurred, so optionality becomes quantitative ("present in 93% of
    tweets") instead of a bare [?]. Fusion adds counts within a fusion
    class, so it is associative, commutative and, up to the counts,
    idempotent — the distribution property E3 tests. The indexed
    accumulator behind {!merge_all} is the only implementation of fusion:
    {!Merge} lifts plain types into it and reads the result back through
    {!erase}. The paper's pairwise fusion survives only as the tests'
    reference. *)

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

(** The equivalence that decides which union branches fuse
    (Baazizi et al., VLDBJ'19):

    - {b Kind equivalence} ([K]): any two types of the same kind fuse. All
      record types collapse into one record whose fields are merged
      field-wise (a field missing on one side becomes optional); all array
      types collapse element-wise. Produces maximally concise, least precise
      types.
    - {b Label equivalence} ([L]): two record types fuse only when they have
      exactly the same set of (mandatory and optional) field names;
      otherwise both stay as separate union branches. Captures field
      correlations that kind equivalence loses.

    Under both, [Int] and [Num] fuse to [Num] and [Any] absorbs
    everything. *)
type equiv = Kind | Label

val equiv_to_string : equiv -> string

val of_value : equiv:equiv -> Json.Value.t -> t
(** Counting typing of one value: every count is 1. The elements of an
    array are fused by one {!merge_all}. *)

val merge_all : equiv:equiv -> t list -> t
(** [merge_all ~equiv ts] fuses the branches of every value of [ts] by
    class (the kind, or the label set under [Label]), adding counts within
    a class: the paper's binary fusion folded over [ts] from [CBot], which
    [test/pairwise.ml] keeps as the reference. It runs in time proportional
    to the total size of [ts] plus one sort of the result: a mutable
    accumulator keeps one slot per fusion class, record fields by name and
    record branches by label set, and is frozen once into the canonical
    value (fields sorted by [String.compare], union branches by
    [Stdlib.compare], no empty or one-branch union, no union inside a
    union). There is no shortcut for one value, so [merge_all ~equiv [c] =
    c] holds exactly when [c] is canonical, which every value {!of_value}
    and [merge_all] build is. *)

(** {1 The accumulator behind [merge_all]}

    A fold that receives its values one at a time (a shard scanning its
    documents) adds each into an accumulator as it comes and freezes once
    at the end, keeping no list of values. The accumulator counts in place:
    one mutable count per scalar class, one element accumulator for the
    arrays, and record branches (one under [Kind], one per label set under
    [Label]) whose fields sit in string-keyed tables. *)

type acc
(** Mutable; one per fold, never shared between domains. *)

val create : unit -> acc
(** The empty accumulator: it freezes to [CBot]. *)

(** {2 The builder}

    The one way into an accumulator: {!add} and {!merge_all} walk counting
    values through it, and the streaming engine walks each recorded
    document shape through it without building a value. Each call counts
    [k] values of one class; a container's call answers where its contents
    go. Counts may be 0 (a decoded journal carries such values): a class
    that was entered is present in {!freeze}'s value whatever its count. *)

val add_null : acc -> int -> unit
(** [add_null a k] counts [k] nulls; likewise for the other scalar kinds.
    [add_int] and [add_float] share one number slot, which freezes to
    [CNum] once a float was counted and to [CInt] before. *)

val add_bool : acc -> int -> unit
val add_int : acc -> int -> unit
val add_float : acc -> int -> unit
val add_str : acc -> int -> unit

val enter_array : acc -> int -> acc
(** [enter_array a k] counts [k] arrays and answers the accumulator of
    their elements, one per [a]: each element is added there with the
    multiplicity of its array. *)

type record
(** One record branch of an accumulator: its count and its fields. *)

val enter_record : acc -> int -> string array -> record
(** [enter_record a k labels] counts [k] records in the branch of the label
    set [labels]: the record's distinct field names sorted by
    [String.compare] under [Label], and [[||]] under [Kind], where every
    record joins one branch. The array becomes the branch's key, so the
    caller must not change it afterwards. *)

val enter_field : record -> string -> int -> acc
(** [enter_field r name k] counts [k] occurrences of field [name] in branch
    [r] and answers the accumulator of its values. *)

(** {2 Values} *)

val add : ?times:int -> equiv:equiv -> acc -> t -> unit
(** [add ~times:k ~equiv a c] adds [k] (default 1) copies of [c], in time
    proportional to the size of [c] whatever [k]: every count of [c] enters
    multiplied by [k]. On canonical values that is the same as [k] separate
    adds, so a fold may count repeats of one value and add them once.
    @raise Invalid_argument if [k < 1]. *)

val freeze : acc -> t
(** The canonical value of everything added so far: [freeze] after adding
    [c1 … cn] is [merge_all ~equiv [c1; …; cn]]. The accumulator is not
    consumed; adds may continue after a freeze. *)

val infer : equiv:equiv -> Json.Value.t list -> t
(** [merge_all] of the documents' {!of_value}: linear in the corpus size
    under both equivalences. *)

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
