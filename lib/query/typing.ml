open Jtype

let union2 a b = Types.union [ a; b ]
let with_null t = union2 t Types.null

(* type of [v.f] when v : t — Null covers absence and non-records *)
let rec field_type (t : Types.t) f : Types.t =
  match t.Types.node with
  | Types.Rec fields -> (
      match List.find_opt (fun fld -> String.equal fld.Types.fname f) fields with
      | Some fld ->
          if fld.Types.optional then with_null fld.Types.ftype else fld.Types.ftype
      | None -> Types.null)
  | Types.Union ts -> Types.union (List.map (fun t -> field_type t f) ts)
  | Types.Any -> Types.any
  | Types.Bot -> Types.bot
  | _ -> Types.null

(* type of [v[i]] *)
let rec index_type (t : Types.t) : Types.t =
  match t.Types.node with
  | Types.Arr elem -> with_null elem (* index may be out of range *)
  | Types.Union ts -> Types.union (List.map index_type ts)
  | Types.Any -> Types.any
  | Types.Bot -> Types.bot
  | _ -> Types.null

(* element type of array values of t; Bot when t can never be an array *)
let rec elements_type (t : Types.t) : Types.t =
  match t.Types.node with
  | Types.Arr elem -> elem
  | Types.Union ts -> Types.union (List.map elements_type ts)
  | Types.Any -> Types.any
  | _ -> Types.bot

(* how a type relates to numbers, for arithmetic result typing:
   [Empty] has no values at all (Bot); [Non_num] has values, none numeric *)
type numeric = All_int | All_num | Mixed | Non_num | Empty

let rec numeric_status (t : Types.t) : numeric =
  match t.Types.node with
  | Types.Int -> All_int
  | Types.Num -> All_num
  | Types.Bot -> Empty
  | Types.Any -> Mixed
  | Types.Union ts ->
      List.fold_left
        (fun acc t ->
          match (acc, numeric_status t) with
          | Empty, s | s, Empty -> s
          | All_int, All_int -> All_int
          | (All_int | All_num), (All_int | All_num) -> All_num
          | Non_num, Non_num -> Non_num
          | _ -> Mixed)
        Empty ts
  | _ -> Non_num

let rec type_expr (ctx : Types.t) (e : Ast.expr) : Types.t =
  match e with
  | Ast.Ctx -> ctx
  | Ast.Const v -> Types.of_value v
  | Ast.Field (e, f) -> field_type (type_expr ctx e) f
  | Ast.Index (e, _) -> index_type (type_expr ctx e)
  | Ast.Not _ | Ast.Is_null _ -> Types.bool
  | Ast.Record fields ->
      Types.rec_
        (List.map (fun (k, e) -> Types.field k (type_expr ctx e)) fields)
  | Ast.List es -> Types.arr (Types.union (List.map (type_expr ctx) es))
  | Ast.Binop (op, ea, eb) -> (
      match op with
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
          Types.bool
      | Ast.Add | Ast.Sub | Ast.Mul -> (
          let sa = numeric_status (type_expr ctx ea) in
          let sb = numeric_status (type_expr ctx eb) in
          match (sa, sb) with
          | (Non_num | Empty), _ | _, (Non_num | Empty) -> Types.null
          | All_int, All_int -> Types.int
          | (All_int | All_num), (All_int | All_num) -> Types.num
          | _ -> with_null Types.num)
      | Ast.Div -> (
          let sa = numeric_status (type_expr ctx ea) in
          let sb = numeric_status (type_expr ctx eb) in
          match (sa, sb) with
          | (Non_num | Empty), _ | _, (Non_num | Empty) -> Types.null
          | _ -> with_null Types.num))

let type_agg (ctx : Types.t) (agg : Ast.agg) : Types.t =
  match agg with
  | Ast.Count -> Types.int
  | Ast.Sum e ->
      (* eval: skips non-numeric values; an all-Int-or-Null operand column
         sums to Int, anything else may come out Float *)
      let t = type_expr ctx e in
      if Subtype.is_sub t (union2 Types.int Types.null) then Types.int
      else union2 Types.int Types.num
  | Ast.Avg e -> (
      match numeric_status (type_expr ctx e) with
      | All_int | All_num -> Types.num
      | Non_num | Empty -> Types.null
      | Mixed -> with_null Types.num)
  | Ast.Min e | Ast.Max e -> with_null (type_expr ctx e)

let type_stage (ctx : Types.t) (stage : Ast.stage) : Types.t =
  match stage with
  | Ast.Filter _ | Ast.Sort_by _ | Ast.Top _ -> ctx
  | Ast.Transform e -> type_expr ctx e
  | Ast.Expand None -> elements_type ctx
  | Ast.Expand (Some f) -> elements_type (field_type ctx f)
  | Ast.Group_by (key, aggs) ->
      (* an aggregate named "key" is shadowed by the group key (first
         binding wins at lookup time) *)
      let fields =
        Types.field "key" (type_expr ctx key)
        :: List.map (fun (name, agg) -> Types.field name (type_agg ctx agg)) aggs
      in
      let seen = Hashtbl.create 8 in
      Types.rec_
        (List.filter
           (fun f ->
             if Hashtbl.mem seen f.Types.fname then false
             else begin
               Hashtbl.add seen f.Types.fname ();
               true
             end)
           fields)

let type_pipeline ctx pipeline = List.fold_left type_stage ctx pipeline
