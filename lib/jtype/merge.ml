type equiv = Kind | Label

let equiv_to_string = function Kind -> "kind" | Label -> "label"

(* --- per-domain memo caches --------------------------------------------- *)

(* Fusion is memoized on node identity: hash-consing (Types) guarantees
   that within a domain, structurally equal inputs are physically equal,
   so a pair of ids determines the (purely structural) result. Keys are
   normalized commutatively — merge and fuse are commutative up to
   structural identity (the algebra the determinism tests pin down), so
   (a ⊕ b) and (b ⊕ a) share one entry under (min id, max id). Values
   hold results strongly; a wholesale clear at [cache_capacity] bounds
   both memory and stale-key accumulation (ids are never reused, so an
   entry whose operand died is unreachable, not wrong).

   Each domain owns its caches (Domain.DLS): no locking on the hot path,
   and a worker's warm cache dies with the domain. Memoized results are
   structurally determined, so sequential and sharded runs print
   byte-identical types no matter which domain computed what. *)

type caches = {
  merge_kind : (int * int, Types.t) Hashtbl.t;
  merge_label : (int * int, Types.t) Hashtbl.t;
  fuse_kind : (int * int, Types.t option) Hashtbl.t;
  fuse_label : (int * int, Types.t option) Hashtbl.t;
  simp_kind : (int, Types.t) Hashtbl.t;
  simp_label : (int, Types.t) Hashtbl.t;
}

let cache_capacity = 1 lsl 17

let caches_key : caches Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { merge_kind = Hashtbl.create 1024;
        merge_label = Hashtbl.create 1024;
        fuse_kind = Hashtbl.create 1024;
        fuse_label = Hashtbl.create 1024;
        simp_kind = Hashtbl.create 1024;
        simp_label = Hashtbl.create 1024 })

let memo_on = Atomic.make true
let set_memoize b = Atomic.set memo_on b

let cache_size () =
  let c = Domain.DLS.get caches_key in
  Hashtbl.length c.merge_kind + Hashtbl.length c.merge_label
  + Hashtbl.length c.fuse_kind + Hashtbl.length c.fuse_label
  + Hashtbl.length c.simp_kind + Hashtbl.length c.simp_label

let clear_caches () =
  let c = Domain.DLS.get caches_key in
  Hashtbl.reset c.merge_kind;
  Hashtbl.reset c.merge_label;
  Hashtbl.reset c.fuse_kind;
  Hashtbl.reset c.fuse_label;
  Hashtbl.reset c.simp_kind;
  Hashtbl.reset c.simp_label

let c_merge_hit = Kernel.counter "kernel.merge.hits"
let c_merge_miss = Kernel.counter "kernel.merge.misses"
let c_fuse_hit = Kernel.counter "kernel.fuse.hits"
let c_fuse_miss = Kernel.counter "kernel.fuse.misses"
let c_simp_hit = Kernel.counter "kernel.simplify.hits"
let c_simp_miss = Kernel.counter "kernel.simplify.misses"
let c_clears = Kernel.counter "kernel.cache.clears"

let pair_key a b =
  let ia = Types.id a and ib = Types.id b in
  if ia <= ib then (ia, ib) else (ib, ia)

let memoized tbl ~hit ~miss key compute =
  match Hashtbl.find_opt tbl key with
  | Some r ->
      Kernel.hit hit;
      r
  | None ->
      Kernel.hit miss;
      let r = compute () in
      if Hashtbl.length tbl >= cache_capacity then begin
        Hashtbl.reset tbl;
        Kernel.hit c_clears
      end;
      Hashtbl.add tbl key r;
      r

(* --- fusion -------------------------------------------------------------- *)

(* Merge the field lists of two records that have been deemed equivalent.
   Both lists are sorted by name (Types invariant). A field present on only
   one side becomes optional. The field-list merge is memoized through the
   fuse cache: the Rec × Rec entry pins the fully merged field list. *)
let rec merge_fields ~equiv xs ys =
  match (xs, ys) with
  | [], rest | rest, [] ->
      List.map (fun f -> { f with Types.optional = true }) rest
  | (x :: xs' as xl), (y :: ys' as yl) ->
      let c = String.compare x.Types.fname y.Types.fname in
      if c = 0 then
        Types.field ~optional:(x.Types.optional || y.Types.optional) x.Types.fname
          (merge_canonical ~equiv x.Types.ftype y.Types.ftype)
        :: merge_fields ~equiv xs' ys'
      else if c < 0 then { x with Types.optional = true } :: merge_fields ~equiv xs' yl
      else { y with Types.optional = true } :: merge_fields ~equiv xl ys'

(* Two record types are label-equivalent when they declare the same field
   names (optionality ignored: an optional field still names a label). *)
and same_labels xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun x y -> String.equal x.Types.fname y.Types.fname) xs ys

(* Try to fuse two non-union, non-Bot branches; None when the equivalence
   keeps them as distinct union branches. Scalar pairs resolve with a
   constant match; only the composite pairs (Arr × Arr, Rec × Rec — the
   ones that recurse) go through the memo table. *)
and fuse ~equiv (a : Types.t) (b : Types.t) : Types.t option =
  if a == b then Some a (* idempotence: canonical branches fuse to themselves *)
  else
    match (a.Types.node, b.Types.node) with
    | Types.Any, _ | _, Types.Any -> Some Types.any
    | Types.Null, Types.Null -> Some Types.null
    | Types.Bool, Types.Bool -> Some Types.bool
    | Types.Int, Types.Int -> Some Types.int
    | Types.Str, Types.Str -> Some Types.str
    | (Types.Num | Types.Int), (Types.Num | Types.Int) -> Some Types.num
    | Types.Arr _, Types.Arr _ | Types.Rec _, Types.Rec _ ->
        if not (Atomic.get memo_on) then fuse_composite ~equiv a b
        else
          let c = Domain.DLS.get caches_key in
          let tbl = match equiv with Kind -> c.fuse_kind | Label -> c.fuse_label in
          memoized tbl ~hit:c_fuse_hit ~miss:c_fuse_miss (pair_key a b)
            (fun () -> fuse_composite ~equiv a b)
    | _ -> None

and fuse_composite ~equiv a b =
  match (a.Types.node, b.Types.node) with
  | Types.Arr x, Types.Arr y -> Some (Types.arr (merge_canonical ~equiv x y))
  | Types.Rec xs, Types.Rec ys -> (
      match equiv with
      | Kind -> Some (Types.rec_ (merge_fields ~equiv xs ys))
      | Label ->
          if same_labels xs ys then Some (Types.rec_ (merge_fields ~equiv xs ys))
          else None)
  | _ -> assert false

(* Insert a branch into an accumulated list of pairwise-unfusable branches.
   The quadratic rescan survives, but each candidate × branch probe is an
   O(1) memo hit once the pair has been seen — this is where the fuse
   cache pays for union-heavy corpora. *)
and insert ~equiv branch acc =
  let rec go seen = function
    | [] -> List.rev (branch :: seen)
    | candidate :: rest -> (
        match fuse ~equiv candidate branch with
        | Some fused ->
            (* fusing may enable further fusions (e.g. Int then Num) *)
            insert ~equiv fused (List.rev_append seen rest)
        | None -> go (candidate :: seen) rest)
  in
  go [] acc

(* Merge two types whose subterms are already simplified under [equiv]
   ("canonical"). [fuse] merges subtrees with [merge_canonical], so by
   induction the output is canonical — this is what keeps a fold over a
   collection linear instead of re-traversing the accumulator each step. *)
and merge_canonical ~equiv a b =
  if a == b then a (* ⊕ is idempotent on canonical types *)
  else
    match (a.Types.node, b.Types.node) with
    | Types.Bot, _ -> b (* Bot is the identity; b is already canonical *)
    | _, Types.Bot -> a
    | _ ->
        if not (Atomic.get memo_on) then merge_canonical_raw ~equiv a b
        else
          let c = Domain.DLS.get caches_key in
          let tbl = match equiv with Kind -> c.merge_kind | Label -> c.merge_label in
          memoized tbl ~hit:c_merge_hit ~miss:c_merge_miss (pair_key a b)
            (fun () -> merge_canonical_raw ~equiv a b)

and merge_canonical_raw ~equiv a b =
  let branches t =
    match t.Types.node with Types.Union ts -> ts | Types.Bot -> [] | _ -> [ t ]
  in
  Types.union
    (List.fold_left (fun acc t -> insert ~equiv t acc) [] (branches a @ branches b))

(* Simplify the subterms of a single branch. *)
and push_down ~equiv (t : Types.t) : Types.t =
  match t.Types.node with
  | Types.Bot | Types.Null | Types.Bool | Types.Int | Types.Num | Types.Str
  | Types.Any ->
      t
  | Types.Arr x -> Types.arr (simplify ~equiv x)
  | Types.Rec fields ->
      Types.rec_
        (List.map
           (fun f -> { f with Types.ftype = simplify ~equiv f.Types.ftype })
           fields)
  | Types.Union ts -> Types.union (List.map (push_down ~equiv) ts)

(* Memoized on the node id: NDJSON corpora re-derive the same document
   types over and over, and simplify is the per-document preprocessing
   step of every merge fold. *)
and simplify ~equiv t =
  match t.Types.node with
  | Types.Bot | Types.Null | Types.Bool | Types.Int | Types.Num | Types.Str
  | Types.Any ->
      t
  | _ ->
      if not (Atomic.get memo_on) then simplify_raw ~equiv t
      else
        let c = Domain.DLS.get caches_key in
        let tbl = match equiv with Kind -> c.simp_kind | Label -> c.simp_label in
        memoized tbl ~hit:c_simp_hit ~miss:c_simp_miss (Types.id t)
          (fun () -> simplify_raw ~equiv t)

and simplify_raw ~equiv t =
  match t.Types.node with
  | Types.Union ts ->
      let ts = List.map (push_down ~equiv) ts in
      Types.union (List.fold_left (fun acc t -> insert ~equiv t acc) [] ts)
  | _ -> push_down ~equiv t

and merge ~equiv a b =
  merge_canonical ~equiv (simplify ~equiv a) (simplify ~equiv b)

let merge_all ~equiv = function
  | [] -> Types.bot
  | t :: ts ->
      List.fold_left
        (fun acc t -> merge_canonical ~equiv acc (simplify ~equiv t))
        (simplify ~equiv t) ts
