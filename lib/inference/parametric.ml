(* top-level branch count of an inferred type: how wide the collection's
   variability is after merging (1 for a homogeneous collection) *)
let union_width (t : Jtype.Types.t) =
  match t.Jtype.Types.node with
  | Jtype.Types.Union branches -> List.length branches
  | Jtype.Types.Bot -> 0
  | _ -> 1

let infer ~equiv values =
  Jtype.Merge.merge_all ~equiv (List.map Jtype.Types.of_value values)

let split_into n xs =
  let len = List.length xs in
  if n <= 1 || len <= 1 then [ xs ]
  else begin
    let chunk = max 1 ((len + n - 1) / n) in
    let rec go acc current count = function
      | [] -> List.rev (List.rev current :: acc)
      | x :: rest ->
          if count = chunk then go (List.rev current :: acc) [ x ] 1 rest
          else go acc (x :: current) (count + 1) rest
    in
    match xs with [] -> [ [] ] | x :: rest -> go [] [ x ] 1 rest
  end

(* Balanced pairwise reduction: the shape a distributed reduce produces. *)
let rec tree_reduce f = function
  | [] -> invalid_arg "tree_reduce: empty"
  | [ x ] -> x
  | xs ->
      let rec pair = function
        | a :: b :: rest -> f a b :: pair rest
        | leftover -> leftover
      in
      tree_reduce f (pair xs)

let infer_partitioned ~equiv ~partitions values =
  match values with
  | [] -> Jtype.Types.bot
  | _ ->
      let parts = split_into partitions values in
      let partials = List.map (infer ~equiv) parts in
      tree_reduce (Jtype.Merge.merge ~equiv) partials

let infer_counting ~equiv values = Jtype.Counting.infer ~equiv values

let precision t values =
  match values with
  | [] -> 1.0
  | _ ->
      let hits =
        List.length (List.filter (fun v -> Jtype.Typecheck.member v t) values)
      in
      float_of_int hits /. float_of_int (List.length values)

let conciseness = Jtype.Types.size
