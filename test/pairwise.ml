(* The paper's binary counting fusion folded one value at a time, arrays
   included: the reference for the n-ary fold. [Counting.merge_all] runs
   the indexed accumulator, and so do [Counting.of_value]'s element folds,
   [Counting.infer] (= [Parametric.infer_counting]) and both engines'
   shard folds, so a reference built on any of them would share its
   faults. *)

module C = Jtype.Counting

let fold ~equiv cs = List.fold_left (C.merge ~equiv) C.CBot cs

let rec of_value ~equiv (v : Json.Value.t) =
  match v with
  | Json.Value.Array vs -> C.CArr (1, fold ~equiv (List.map (of_value ~equiv) vs))
  | Json.Value.Object members ->
      (* one field per key, the last occurrence winning *)
      let last =
        List.fold_left (fun acc (k, x) -> (k, x) :: List.remove_assoc k acc) [] members
      in
      C.CRec
        ( 1,
          List.sort
            (fun a b -> String.compare a.C.fname b.C.fname)
            (List.map
               (fun (k, x) -> { C.fname = k; occurs = 1; ftype = of_value ~equiv x })
               last) )
  | scalar -> C.of_value ~equiv scalar

let infer ~equiv vs = fold ~equiv (List.map (of_value ~equiv) vs)

(* [scale k t] multiplies every count in [t] by [k]: the counting type of a
   collection holding each value of [t]'s collection [k] times, which is
   what [Counting.add ~times:k] must add. Multiplying every count by the
   same [k > 0] keeps the order of any two values under [Stdlib.compare]
   (it reaches the counts only after the constructors and names agree), so
   sorted union branches stay sorted. *)
let scale k t =
  let rec go = function
    | C.CBot -> C.CBot
    | C.CNull n -> C.CNull (k * n)
    | C.CBool n -> C.CBool (k * n)
    | C.CInt n -> C.CInt (k * n)
    | C.CNum n -> C.CNum (k * n)
    | C.CStr n -> C.CStr (k * n)
    | C.CAny n -> C.CAny (k * n)
    | C.CArr (n, elem) -> C.CArr (k * n, go elem)
    | C.CRec (n, fields) ->
        C.CRec
          ( k * n,
            List.map
              (fun f -> { f with C.occurs = k * f.C.occurs; ftype = go f.C.ftype })
              fields )
    | C.CUnion ts -> C.CUnion (List.map go ts)
  in
  go t
