(** Parametric schema inference for massive JSON collections
    (Baazizi, Ben Lahmar, Colazzo, Ghelli, Sartiani — EDBT'17, VLDBJ'19).

    The algorithm is a map/reduce: {e map} types every value
    ({!Jtype.Types.of_value}), {e reduce} fuses the types with the
    equivalence-parameterized merge ({!Jtype.Merge.merge}). Because the
    merge is associative and commutative, the reduce can be evaluated in any
    tree shape; {!infer_partitioned} evaluates it as a balanced tree over
    partitions, which is exactly the shape a distributed runtime (the
    papers use Spark) produces. Experiment E3 checks shape-independence and
    measures the merge-tree speedup; [Core.Parallel] evaluates the same
    shard/reduce shape on a pool of OCaml 5 domains (experiment E14), with
    results identical to the sequential fold for any shard count. *)

val infer : equiv:Jtype.Merge.equiv -> Json.Value.t list -> Jtype.Types.t
(** Sequential fold: the paper's algorithm over the hash-consed kernel.
    It is the reference the tests compare every inference pipeline
    against, and the fold behind [stats] and [translate]; the pipelines of
    [Core] run the counting fold ({!infer_counting}) instead and read the
    type off by {!Jtype.Counting.erase}, which yields this type. *)

val union_width : Jtype.Types.t -> int
(** Top-level union branch count: 0 for [Bot], 1 for any non-union type,
    the number of branches otherwise. The "how heterogeneous is this
    collection" observability measure. *)

val infer_partitioned :
  equiv:Jtype.Merge.equiv -> partitions:int -> Json.Value.t list -> Jtype.Types.t
(** Split the collection into [partitions] chunks, infer each, then reduce
    the partial types with a balanced merge tree. Same result as {!infer}
    for any partition count. *)

val infer_counting :
  equiv:Jtype.Merge.equiv -> Json.Value.t list -> Jtype.Counting.t
(** Counting variant (DBPL'17). *)

val infer_ndjson :
  equiv:Jtype.Merge.equiv -> string -> (Jtype.Types.t, Json.Parser.error) result
(** Stream over an NDJSON / concatenated-JSON text without materializing the
    collection. *)

(** {1 Quality metrics used by the experiments} *)

val precision : Jtype.Types.t -> Json.Value.t list -> float
(** Fraction of the given values inhabiting the type (1.0 = sound, which
    inference guarantees on its own input; interesting on {e held-out}
    data). *)

val conciseness : Jtype.Types.t -> int
(** Alias for {!Jtype.Types.size}. *)
