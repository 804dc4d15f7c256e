(* The paper's binary fusion, folded one value at a time: the references
   for the one fusion core. [Counting.merge_all] runs the indexed
   accumulator, and so do [Counting.of_value]'s element folds,
   [Counting.infer] (= [Parametric.infer_counting]), both engines' shard
   folds and [Merge.merge_all] (= [Parametric.infer]), which lifts plain
   types into it and erases the result. A reference built on any of them
   would share its faults, so both algebras are re-implemented here: the
   counting fusion at the top level, the plain one in [Seed]. [Syntactic]
   keeps the syntactic subtyping the query typer ran before it moved to
   [Subtype]: the floor [Subtype] must reach. *)

module C = Jtype.Counting

(* --- counting types ------------------------------------------------------ *)

let rec merge_fields ~equiv xs ys =
  (* Both sorted. A field absent on one side keeps its count (it just
     becomes optional relative to the merged record count). *)
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (x :: xs' as xl), (y :: ys' as yl) ->
      let c = String.compare x.C.fname y.C.fname in
      if c = 0 then
        { C.fname = x.C.fname;
          occurs = x.C.occurs + y.C.occurs;
          ftype = merge ~equiv x.C.ftype y.C.ftype }
        :: merge_fields ~equiv xs' ys'
      else if c < 0 then x :: merge_fields ~equiv xs' yl
      else y :: merge_fields ~equiv xl ys'

and same_labels xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun x y -> String.equal x.C.fname y.C.fname) xs ys

and fuse ~equiv a b =
  match (a, b) with
  | C.CAny n, other | other, C.CAny n -> Some (C.CAny (n + C.count other))
  | C.CNull n, C.CNull m -> Some (C.CNull (n + m))
  | C.CBool n, C.CBool m -> Some (C.CBool (n + m))
  | C.CInt n, C.CInt m -> Some (C.CInt (n + m))
  | C.CStr n, C.CStr m -> Some (C.CStr (n + m))
  | (C.CNum n | C.CInt n), (C.CNum m | C.CInt m) -> Some (C.CNum (n + m))
  | C.CArr (n, x), C.CArr (m, y) -> Some (C.CArr (n + m, merge ~equiv x y))
  | C.CRec (n, xs), C.CRec (m, ys) -> (
      match (equiv : C.equiv) with
      | Kind -> Some (C.CRec (n + m, merge_fields ~equiv xs ys))
      | Label ->
          if same_labels xs ys then Some (C.CRec (n + m, merge_fields ~equiv xs ys))
          else None)
  | _ -> None

and insert ~equiv branch acc =
  let rec go seen = function
    | [] -> List.rev (branch :: seen)
    | candidate :: rest -> (
        match fuse ~equiv candidate branch with
        | Some fused -> insert ~equiv fused (List.rev_append seen rest)
        | None -> go (candidate :: seen) rest)
  in
  go [] acc

(* the branches of both sides fused by class, counts added within a class;
   it re-fuses the whole union on every call *)
and merge ~equiv a b =
  let branches = function C.CUnion ts -> ts | C.CBot -> [] | t -> [ t ] in
  match List.fold_left (fun acc t -> insert ~equiv t acc) [] (branches a @ branches b) with
  | [] -> C.CBot
  | [ t ] -> t
  | ts -> C.CUnion (List.sort Stdlib.compare ts)

let fold ~equiv cs = List.fold_left (merge ~equiv) C.CBot cs

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

(* --- plain types -----------------------------------------------------------

   The pre-kernel representation: a plain variant with deep structural
   compare and the pairwise fusion [Merge] ran until the accumulator took
   over, [simplify] and [insert] included. Its printed types are what
   [Types.to_string] must print for the same fold. *)

module Seed = struct
  type t =
    | Bot
    | Null
    | Bool
    | Int
    | Num
    | Str
    | Arr of t
    | Rec of field list
    | Union of t list
    | Any

  and field = { fname : string; optional : bool; ftype : t }

  let rank = function
    | Bot -> 0 | Null -> 1 | Bool -> 2 | Int -> 3 | Num -> 4 | Str -> 5
    | Arr _ -> 6 | Rec _ -> 7 | Union _ -> 8 | Any -> 9

  let rec compare a b =
    match (a, b) with
    | Arr x, Arr y -> compare x y
    | Rec xs, Rec ys -> compare_fields xs ys
    | Union xs, Union ys -> compare_list xs ys
    | _ -> Stdlib.compare (rank a) (rank b)

  and compare_list xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs', y :: ys' ->
        let c = compare x y in
        if c <> 0 then c else compare_list xs' ys'

  and compare_fields xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs', y :: ys' ->
        let c = String.compare x.fname y.fname in
        if c <> 0 then c
        else
          let c = Bool.compare x.optional y.optional in
          if c <> 0 then c
          else
            let c = compare x.ftype y.ftype in
            if c <> 0 then c else compare_fields xs' ys'

  let union ts =
    let rec flatten acc = function
      | [] -> acc
      | Union us :: rest -> flatten (flatten acc us) rest
      | Bot :: rest -> flatten acc rest
      | t :: rest -> flatten (t :: acc) rest
    in
    let flat = flatten [] ts in
    if List.exists (fun t -> t = Any) flat then Any
    else
      match List.sort_uniq compare flat with
      | [] -> Bot
      | [ t ] -> t
      | ts -> Union ts

  let rec of_value (v : Json.Value.t) : t =
    match v with
    | Json.Value.Null -> Null
    | Json.Value.Bool _ -> Bool
    | Json.Value.Int _ -> Int
    | Json.Value.Float _ -> Num
    | Json.Value.String _ -> Str
    | Json.Value.Array vs -> Arr (union (List.map of_value vs))
    | Json.Value.Object fields ->
        let seen = Hashtbl.create 8 in
        let uniq =
          List.filter
            (fun (k, _) ->
              if Hashtbl.mem seen k then false
              else (Hashtbl.add seen k (); true))
            (List.rev fields)
        in
        let fields =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            (List.map (fun (k, x) -> (k, of_value x)) uniq)
        in
        Rec (List.map (fun (k, ft) -> { fname = k; optional = false; ftype = ft }) fields)

  let rec merge_fields ~equiv xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.map (fun f -> { f with optional = true }) rest
    | (x :: xs' as xl), (y :: ys' as yl) ->
        let c = String.compare x.fname y.fname in
        if c = 0 then
          { fname = x.fname;
            optional = x.optional || y.optional;
            ftype = merge_canonical ~equiv x.ftype y.ftype }
          :: merge_fields ~equiv xs' ys'
        else if c < 0 then { x with optional = true } :: merge_fields ~equiv xs' yl
        else { y with optional = true } :: merge_fields ~equiv xl ys'

  and same_labels xs ys =
    List.length xs = List.length ys
    && List.for_all2 (fun x y -> String.equal x.fname y.fname) xs ys

  and fuse ~equiv a b =
    match (a, b) with
    | Any, _ | _, Any -> Some Any
    | Null, Null -> Some Null
    | Bool, Bool -> Some Bool
    | Int, Int -> Some Int
    | Str, Str -> Some Str
    | (Num | Int), (Num | Int) -> Some Num
    | Arr x, Arr y -> Some (Arr (merge_canonical ~equiv x y))
    | Rec xs, Rec ys -> (
        match (equiv : C.equiv) with
        | Kind -> Some (Rec (merge_fields ~equiv xs ys))
        | Label ->
            if same_labels xs ys then Some (Rec (merge_fields ~equiv xs ys))
            else None)
    | _ -> None

  and insert ~equiv branch acc =
    let rec go seen = function
      | [] -> List.rev (branch :: seen)
      | candidate :: rest -> (
          match fuse ~equiv candidate branch with
          | Some fused -> insert ~equiv fused (List.rev_append seen rest)
          | None -> go (candidate :: seen) rest)
    in
    go [] acc

  and merge_canonical ~equiv a b =
    let branches = function Union ts -> ts | Bot -> [] | t -> [ t ] in
    union
      (List.fold_left (fun acc t -> insert ~equiv t acc) [] (branches a @ branches b))

  and push_down ~equiv t =
    match t with
    | Bot | Null | Bool | Int | Num | Str | Any -> t
    | Arr x -> Arr (simplify ~equiv x)
    | Rec fields ->
        Rec (List.map (fun f -> { f with ftype = simplify ~equiv f.ftype }) fields)
    | Union ts -> union (List.map (push_down ~equiv) ts)

  and simplify ~equiv t =
    match t with
    | Union ts ->
        let ts = List.map (push_down ~equiv) ts in
        union (List.fold_left (fun acc t -> insert ~equiv t acc) [] ts)
    | t -> push_down ~equiv t

  let merge_all ~equiv = function
    | [] -> Bot
    | t :: ts ->
        List.fold_left
          (fun acc t -> merge_canonical ~equiv acc (simplify ~equiv t))
          (simplify ~equiv t) ts

  let infer ~equiv vs = merge_all ~equiv (List.map of_value vs)

  (* the same type, node by node: the input of the generated-types oracle *)
  let rec of_types (t : Jtype.Types.t) =
    match t.Jtype.Types.node with
    | Jtype.Types.Bot -> Bot
    | Jtype.Types.Null -> Null
    | Jtype.Types.Bool -> Bool
    | Jtype.Types.Int -> Int
    | Jtype.Types.Num -> Num
    | Jtype.Types.Str -> Str
    | Jtype.Types.Any -> Any
    | Jtype.Types.Arr elem -> Arr (of_types elem)
    | Jtype.Types.Rec fields ->
        Rec
          (List.map
             (fun f ->
               { fname = f.Jtype.Types.fname;
                 optional = f.Jtype.Types.optional;
                 ftype = of_types f.Jtype.Types.ftype })
             fields)
    | Jtype.Types.Union ts -> Union (List.map of_types ts)

  let rec to_string t =
    match t with
    | Bot -> "Bot"
    | Null -> "Null"
    | Bool -> "Bool"
    | Int -> "Int"
    | Num -> "Num"
    | Str -> "Str"
    | Any -> "Any"
    | Arr Bot -> "[]"
    | Arr t -> "[" ^ to_string t ^ "]"
    | Rec fields ->
        let f { fname; optional; ftype } =
          Printf.sprintf "%s%s: %s" fname (if optional then "?" else "")
            (to_string ftype)
        in
        "{" ^ String.concat ", " (List.map f fields) ^ "}"
    | Union ts -> String.concat " + " (List.map to_string_atom ts)

  and to_string_atom t =
    match t with Union _ -> "(" ^ to_string t ^ ")" | _ -> to_string t
end

(* --- syntactic subtyping ----------------------------------------------------

   A sound approximation of inclusion under [Typecheck.member]: it may
   answer [false] for a true inclusion that needs a union distributed over
   a record, or an uninhabited type, but never [true] wrongly. Everything
   it proves, [Subtype.check] must prove too. *)

module Syntactic = struct
  module T = Jtype.Types

  let rec subtype (a : T.t) (b : T.t) =
    a == b
    ||
    match (a.T.node, b.T.node) with
    | T.Bot, _ -> true
    | _, T.Any -> true
    | T.Any, _ -> false
    | _, T.Bot -> false
    | T.Null, T.Null | T.Bool, T.Bool | T.Str, T.Str -> true
    | T.Int, (T.Int | T.Num) -> true
    | T.Num, T.Num -> true
    | T.Arr x, T.Arr y -> subtype x y
    | T.Rec xs, T.Rec ys -> subtype_fields xs ys
    | T.Union ts, _ -> List.for_all (fun t -> subtype t b) ts
    | _, T.Union us -> List.exists (fun u -> subtype a u) us
    | (T.Null | T.Bool | T.Int | T.Num | T.Str | T.Arr _ | T.Rec _), _ -> false

  (* Closed records: every field of [xs] exists in [ys] with a compatible
     type and is optional only where [ys]'s is, and every field of [ys]
     absent from [xs] is optional. *)
  and subtype_fields xs ys =
    let find name fs = List.find_opt (fun f -> String.equal f.T.fname name) fs in
    List.for_all
      (fun (x : T.field) ->
        match find x.T.fname ys with
        | None -> false
        | Some y ->
            subtype x.T.ftype y.T.ftype && ((not x.T.optional) || y.T.optional))
      xs
    && List.for_all
         (fun (y : T.field) ->
           match find y.T.fname xs with Some _ -> true | None -> y.T.optional)
         ys
end
