(** The fusion operator ⊕ of parametric schema inference on plain types.

    Merging is parameterized by an equivalence on types that decides which
    union branches collapse ({!Counting.equiv}: kind or label equivalence,
    Baazizi et al., VLDBJ'19). Both parameters yield an associative,
    commutative, idempotent merge — the property that makes map/reduce
    inference deterministic regardless of partitioning (exercised by
    experiment E3).

    There is one fusion core, {!Counting}'s indexed accumulator. A type
    enters it as a counting value whose erasure is the type itself, and
    the fused result is read back through {!Counting.erase}, so a fold
    costs time proportional to the total size of its distinct inputs under
    either equivalence. *)

type equiv = Counting.equiv = Kind | Label

val equiv_to_string : equiv -> string

val merge_all : equiv:equiv -> Types.t list -> Types.t
(** Fuse every type of the list ([Bot] for the empty list). Repeated types
    are added once: hash-consing makes them physically equal within a
    domain, and fusing a type with itself changes nothing. The result is
    canonical under [equiv], so [merge_all ~equiv [t]] is [t] with the
    branches [equiv] identifies fused, at every depth. *)

val merge : equiv:equiv -> Types.t -> Types.t -> Types.t
(** [merge ~equiv a b] is [merge_all ~equiv [a; b]]. *)

val clear_caches : unit -> unit
(** Does nothing: fusion keeps no cache. It remains for callers written
    when fusion was memoized per domain. *)
