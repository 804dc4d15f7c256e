(** The structural type algebra for JSON values.

    This is the type language of the parametric schema-inference line of
    work (Baazizi et al., EDBT'17/VLDBJ'19) and — not coincidentally — the
    fragment shared by TypeScript and Swift that the tutorial highlights:
    records with optional fields, homogeneous arrays, and union types.

    Types are kept in a canonical form maintained by the smart constructors:
    record fields sorted by name, unions flattened / sorted / deduplicated
    with [Bot] removed and [Any] absorbing.

    {b Hash-consed kernel.} Since PR 5 the representation is hash-consed:
    [t] is a private record wrapping the constructor layer {!node} with a
    globally unique [id] and a precomputed structural [hash]. The smart
    constructors intern every node in a per-domain weak table, so within a
    domain one physical node stands for each distinct structural type —
    [equal] is pointer equality in the common case, [compare] short-circuits
    on shared subtrees, and {!Merge} adds each repeated type once.
    Nodes that cross a domain boundary (shard hand-off) are merely
    re-interned on the receiving domain; structural equality and the hash
    (computed from child hashes, not ids) are domain-independent. Pattern
    match through the [node] field: [match t.node with Arr elem -> ...]. *)

type t = private { id : int; hash : int; node : node }

and node =
  | Bot  (** the empty type: no value has it; identity of union *)
  | Null
  | Bool
  | Int
  | Num  (** any number; [Int] is a subtype *)
  | Str
  | Arr of t  (** element type; [Arr bot] is the type of the empty array *)
  | Rec of field list  (** sorted by field name *)
  | Union of t list  (** canonical: ≥2 branches, flat, sorted, duplicate-free *)
  | Any  (** top *)

and field = { fname : string; optional : bool; ftype : t }

(** {1 Smart constructors} — the only way to build values of the type. *)

val bot : t
val null : t
val bool : t
val int : t
val num : t
val str : t
val arr : t -> t
val rec_ : field list -> t
(** Sorts fields; duplicate names are an error. @raise Invalid_argument *)

val field : ?optional:bool -> string -> t -> field
val union : t list -> t
(** Canonicalizing n-ary union: flattens nested unions, drops [Bot] and
    syntactic duplicates, absorbs into [Any]. [union []] = [Bot],
    [union [t]] = [t]. *)

val any : t

(** {1 Typing of values} *)

val of_value : Json.Value.t -> t
(** The typing judgment: the most precise type of a single value. Arrays
    type as [arr (union (map of_value elements))]; all record fields are
    required. *)

(** {1 Structure} *)

val id : t -> int
(** Globally unique node identity (never reused, stable for the process
    lifetime) — the key {!Merge} drops repeated types by. *)

val hash : t -> int
(** Precomputed structural hash: equal for structurally equal types on any
    domain, O(1) to read. *)

val compare : t -> t -> int
(** Total syntactic order (used for the union canonical form). Pointer
    equality short-circuits shared subtrees; the order itself is purely
    structural and thus deterministic across runs and domains. *)

val equal : t -> t -> bool
(** Pointer equality on the interned fast path; falls back to hash-guarded
    structural comparison for nodes interned on different domains. *)

val size : t -> int
(** Number of type nodes — the "schema size" measure of the experiments. *)

val depth : t -> int
val kind_of : t -> string
(** Coarse constructor name, e.g. ["record"], used by kind-equivalence. *)

(** {1 Printing} *)

val to_string : t -> string
(** Concrete syntax of the inference papers: [{a: Int, b?: Str} + Null],
    [[Int + Str]], [⊥], [⊤]. *)

val pp : Format.formatter -> t -> unit

(** {1 Exact JSON serialization}

    A tagged encoding with the round-trip law [of_json (to_json t) = Ok t]
    — unlike the JSON Schema translation in {!Interop}, nothing is widened
    or lost. {!Core.Checkpoint} journals partial merges in this form. *)

val to_json : t -> Json.Value.t
val of_json : Json.Value.t -> (t, string) result
