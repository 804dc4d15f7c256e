(** The fusion operator ⊕ of parametric schema inference.

    Merging is parameterized by an equivalence on types that decides which
    union branches collapse (Baazizi et al., VLDBJ'19):

    - {b Kind equivalence} ([K]): any two types of the same kind fuse. All
      record types collapse into one record whose fields are merged
      field-wise (a field missing on one side becomes optional); all array
      types collapse element-wise. Produces maximally concise, least precise
      types.
    - {b Label equivalence} ([L]): two record types fuse only when they have
      exactly the same set of (mandatory and optional) field names;
      otherwise both stay as separate union branches. Captures field
      correlations that kind equivalence loses.

    Both parameters yield an associative, commutative, idempotent merge —
    the property that makes map/reduce inference deterministic regardless of
    partitioning (exercised by experiment E3).

    {b Memoized fusion.} On top of the hash-consed kernel ({!Types}), the
    operator is memoized per domain: [merge_canonical] and the composite
    [fuse] cases on commutatively normalized [(equiv, min id, max id)]
    keys, and [simplify] on single node ids. Results are structurally
    determined, so memoization cannot perturb the byte-identical
    sequential-vs-sharded guarantee; cache hit/miss/clear counts flow
    into [kernel.*] telemetry counters (see {!Kernel}). Experiment E17
    measures the effect. *)

type equiv = Kind | Label

val equiv_to_string : equiv -> string

val merge : equiv:equiv -> Types.t -> Types.t -> Types.t
(** Fuse two types. *)

val merge_all : equiv:equiv -> Types.t list -> Types.t
(** Left fold of {!merge} over the list ([Bot] for the empty list). *)

val simplify : equiv:equiv -> Types.t -> Types.t
(** Re-canonicalize a type bottom-up, collapsing union branches that the
    equivalence identifies. [merge] outputs are already simplified; use this
    on types built by other means (e.g. {!Types.of_value} unions). *)

(** {1 Memo-cache control} *)

val set_memoize : bool -> unit
(** Globally enable/disable the fusion memo caches (default: enabled).
    Disabling only changes cost, never results: the kernel tests use it as
    the unmemoized oracle, and bench E17 times the fold without caches. *)

val cache_size : unit -> int
(** Number of live memo entries in the {e calling domain}'s caches. *)

val clear_caches : unit -> unit
(** Drop the calling domain's memo caches (cold-start measurement aid).
    Never required for correctness. *)
