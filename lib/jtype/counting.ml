type t =
  | CNull of int
  | CBool of int
  | CInt of int
  | CNum of int
  | CStr of int
  | CArr of int * t
  | CRec of int * cfield list
  | CUnion of t list
  | CAny of int
  | CBot

and cfield = { fname : string; occurs : int; ftype : t }

let rec count = function
  | CNull n | CBool n | CInt n | CNum n | CStr n | CArr (n, _) | CRec (n, _)
  | CAny n ->
      n
  | CUnion ts -> List.fold_left (fun acc t -> acc + count t) 0 ts
  | CBot -> 0

let sort_fields = List.sort (fun a b -> String.compare a.fname b.fname)

type equiv = Kind | Label

let equiv_to_string = function Kind -> "kind" | Label -> "label"

(* --- the fold --------------------------------------------------------------

   The paper's fusion is binary: it fuses the branches of two values by
   class (the kind, or the label set under [Label]) and adds counts within
   a class, so folding it over N values re-fuses the whole union built so
   far N times. The accumulator below keeps one slot per fusion class
   instead and counts in place: adding a value touches only the slots of
   its own branches, fields are found by name and record branches by label
   set, so the cost of an add is the size of the value added. The
   canonical value (fields by name, branches by [Stdlib.compare]) is built
   once, by [freeze].

   The builder ([enter_array], [enter_record], [enter_field] and one add
   per scalar kind) is the one way in: [add] walks a counting value
   through it, and the streaming engine walks a recorded document shape
   through it without building the value. *)

(* Field names and label sets hash and compare as strings, never
   polymorphically. Every name of a label set enters its hash:
   [Hashtbl.hash] of a structure stops after ten elements, and wide records
   sharing a ten-key prefix would all chain in one bucket. *)
module Fields = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)

module Labels = Hashtbl.Make (struct
  type t = string array

  let equal a b = Array.length a = Array.length b && Array.for_all2 String.equal a b
  let hash = Array.fold_left (fun h (s : string) -> (h * 31) + Hashtbl.hash s) 0
end)

(* A scalar slot is the count of its class, -1 while none was added:
   presence is not a nonzero count, since a decoded journal may carry a
   count of 0. [num] reads [CNum] once [float] is set, [CInt] before.
   Arrays are present once [elems] is. The record branch of the empty label
   set is [bare]; under [Kind] every record goes there. *)
type acc = {
  mutable any : int;
  mutable null : int;
  mutable bool : int;
  mutable num : int;
  mutable float : bool;
  mutable str : int;
  mutable arrays : int;
  mutable elems : acc option;
  mutable bare : record option;
  mutable labelled : record Labels.t option;
}

and record = { mutable records : int; fields : field Fields.t }
and field = { mutable occ : int; facc : acc }

let create () =
  { any = -1; null = -1; bool = -1; num = -1; float = false; str = -1;
    arrays = 0; elems = None; bare = None; labelled = None }

let bump n k = if n < 0 then k else n + k
let add_null a k = a.null <- bump a.null k
let add_bool a k = a.bool <- bump a.bool k
let add_int a k = a.num <- bump a.num k

let add_float a k =
  a.num <- bump a.num k;
  a.float <- true

let add_str a k = a.str <- bump a.str k
let add_any a k = a.any <- bump a.any k

let enter_array a k =
  match a.elems with
  | Some e ->
      a.arrays <- a.arrays + k;
      e
  | None ->
      let e = create () in
      a.elems <- Some e;
      a.arrays <- k;
      e

let new_record () = { records = 0; fields = Fields.create 8 }

let enter_record a k labels =
  let r =
    if Array.length labels = 0 then (
      match a.bare with
      | Some r -> r
      | None ->
          let r = new_record () in
          a.bare <- Some r;
          r)
    else
      let branches =
        match a.labelled with
        | Some t -> t
        | None ->
            let t = Labels.create 8 in
            a.labelled <- Some t;
            t
      in
      match Labels.find branches labels with
      | r -> r
      | exception Not_found ->
          let r = new_record () in
          Labels.add branches labels r;
          r
  in
  r.records <- r.records + k;
  r

let enter_field r name k =
  let f =
    match Fields.find r.fields name with
    | f -> f
    | exception Not_found ->
        let f = { occ = 0; facc = create () } in
        Fields.add r.fields name f;
        f
  in
  f.occ <- f.occ + k;
  f.facc

(* [add_k ~equiv k a t] adds [k] copies of [t]: every count of [t] enters
   multiplied by [k], which is what [k] separate adds would sum to. *)
let rec add_k ~equiv k a = function
  | CBot -> ()
  | CUnion ts -> List.iter (add_k ~equiv k a) ts
  | CAny n -> add_any a (k * n)
  | CNull n -> add_null a (k * n)
  | CBool n -> add_bool a (k * n)
  | CInt n -> add_int a (k * n)
  | CNum n -> add_float a (k * n)
  | CStr n -> add_str a (k * n)
  | CArr (n, elem) -> add_k ~equiv k (enter_array a (k * n)) elem
  | CRec (n, fs) ->
      let labels =
        match equiv with
        | Kind -> [||]
        | Label -> Array.of_list (List.map (fun f -> f.fname) fs)
      in
      let r = enter_record a (k * n) labels in
      List.iter
        (fun f -> add_k ~equiv k (enter_field r f.fname (k * f.occurs)) f.ftype)
        fs

let add ?(times = 1) ~equiv a t =
  if times < 1 then invalid_arg "Counting.add: times must be positive";
  add_k ~equiv times a t

(* A [CAny] absorbs every other branch, counts included. *)
let rec freeze a =
  let bs =
    match a.labelled with
    | None -> []
    | Some t -> Labels.fold (fun _ r bs -> freeze_record r :: bs) t []
  in
  let bs = match a.bare with None -> bs | Some r -> freeze_record r :: bs in
  let bs = match a.elems with None -> bs | Some e -> CArr (a.arrays, freeze e) :: bs in
  let bs = if a.str < 0 then bs else CStr a.str :: bs in
  let bs = if a.num < 0 then bs else (if a.float then CNum a.num else CInt a.num) :: bs in
  let bs = if a.bool < 0 then bs else CBool a.bool :: bs in
  let bs = if a.null < 0 then bs else CNull a.null :: bs in
  if a.any >= 0 then CAny (List.fold_left (fun n b -> n + count b) a.any bs)
  else match bs with [] -> CBot | [ b ] -> b | bs -> CUnion (List.sort Stdlib.compare bs)

and freeze_record r =
  CRec
    ( r.records,
      sort_fields
        (Fields.fold
           (fun fname f fs -> { fname; occurs = f.occ; ftype = freeze f.facc } :: fs)
           r.fields []) )

let merge_all ~equiv ts =
  let a = create () in
  List.iter (add_k ~equiv 1 a) ts;
  freeze a

let rec of_value ~equiv (v : Json.Value.t) : t =
  match v with
  | Json.Value.Null -> CNull 1
  | Json.Value.Bool _ -> CBool 1
  | Json.Value.Int _ -> CInt 1
  | Json.Value.Float _ -> CNum 1
  | Json.Value.String _ -> CStr 1
  | Json.Value.Array vs ->
      (* element counts accumulate across all elements of this one array *)
      CArr (1, merge_all ~equiv (List.map (of_value ~equiv) vs))
  | Json.Value.Object fields ->
      let seen = Hashtbl.create 8 in
      let uniq =
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          (List.rev fields)
      in
      CRec
        (1,
         sort_fields
           (List.map (fun (k, x) -> { fname = k; occurs = 1; ftype = of_value ~equiv x }) uniq))

let infer ~equiv values = merge_all ~equiv (List.map (of_value ~equiv) values)

let rec erase (t : t) : Types.t =
  match t with
  | CBot -> Types.bot
  | CNull _ -> Types.null
  | CBool _ -> Types.bool
  | CInt _ -> Types.int
  | CNum _ -> Types.num
  | CStr _ -> Types.str
  | CAny _ -> Types.any
  | CArr (_, elem) -> Types.arr (erase elem)
  | CRec (n, fields) ->
      Types.rec_
        (List.map
           (fun f -> Types.field ~optional:(f.occurs < n) f.fname (erase f.ftype))
           fields)
  | CUnion ts -> Types.union (List.map erase ts)

let rec to_string (t : t) =
  match t with
  | CBot -> "Bot"
  | CNull n -> Printf.sprintf "Null(%d)" n
  | CBool n -> Printf.sprintf "Bool(%d)" n
  | CInt n -> Printf.sprintf "Int(%d)" n
  | CNum n -> Printf.sprintf "Num(%d)" n
  | CStr n -> Printf.sprintf "Str(%d)" n
  | CAny n -> Printf.sprintf "Any(%d)" n
  | CArr (n, elem) -> Printf.sprintf "[%s](%d)" (to_string elem) n
  | CRec (n, fields) ->
      let f fld = Printf.sprintf "%s(%d): %s" fld.fname fld.occurs (to_string fld.ftype) in
      Printf.sprintf "{%s}(%d)" (String.concat ", " (List.map f fields)) n
  | CUnion ts -> String.concat " + " (List.map to_string ts)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let field_probability t path =
  (* Walk the chain of record fields, descending through union branches by
     picking the record branch. *)
  let rec records = function
    | CRec (n, fields) -> [ (n, fields) ]
    | CUnion ts -> List.concat_map records ts
    | _ -> []
  in
  let rec go t = function
    | [] -> None
    | [ last ] ->
        let hits =
          List.concat_map
            (fun (n, fields) ->
              List.filter_map
                (fun f -> if String.equal f.fname last then Some (f.occurs, n) else None)
                fields)
            (records t)
        in
        (match hits with
         | [] -> None
         | _ ->
             let occ = List.fold_left (fun a (o, _) -> a + o) 0 hits in
             let tot = List.fold_left (fun a (_, n) -> a + n) 0 hits in
             if tot = 0 then None else Some (float_of_int occ /. float_of_int tot))
    | name :: rest ->
        let children =
          List.concat_map
            (fun (_, fields) ->
              List.filter_map
                (fun f -> if String.equal f.fname name then Some f.ftype else None)
                fields)
            (records t)
        in
        (match children with
         | [] -> None
         | [ child ] -> go child rest
         | many -> go (CUnion many) rest)
  in
  go t path

let rec to_json (t : t) : Json.Value.t =
  let tagged kind n extra =
    Json.Value.Object
      ([ ("kind", Json.Value.String kind); ("count", Json.Value.Int n) ] @ extra)
  in
  match t with
  | CBot -> Json.Value.Object [ ("kind", Json.Value.String "bottom") ]
  | CNull n -> tagged "null" n []
  | CBool n -> tagged "boolean" n []
  | CInt n -> tagged "integer" n []
  | CNum n -> tagged "number" n []
  | CStr n -> tagged "string" n []
  | CAny n -> tagged "any" n []
  | CArr (n, elem) -> tagged "array" n [ ("items", to_json elem) ]
  | CRec (n, fields) ->
      tagged "record" n
        [ ("fields",
           Json.Value.Object
             (List.map
                (fun f ->
                  ( f.fname,
                    Json.Value.Object
                      [ ("occurs", Json.Value.Int f.occurs); ("type", to_json f.ftype) ] ))
                fields)) ]
  | CUnion ts ->
      Json.Value.Object
        [ ("kind", Json.Value.String "union");
          ("branches", Json.Value.Array (List.map to_json ts)) ]

(* Inverse of [to_json]; the encoding is exact, so checkpoint journals can
   park a partial counting merge on disk and resume it without re-counting.
   Shapes [to_json] never emits are rejected, not repaired: among them a
   record whose field names are not strictly increasing (a repeated name
   makes [erase] raise in [Types.rec_]). *)
let of_json (v : Json.Value.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let member name = function
    | Json.Value.Object fields -> (
        match List.assoc_opt name fields with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "counting json: missing %S" name))
    | _ -> Error "counting json: expected an object"
  in
  let int_of = function
    | Json.Value.Int n -> Ok n
    | _ -> Error "counting json: expected an integer"
  in
  let count_of v =
    let* c = member "count" v in
    int_of c
  in
  let rec go v =
    let* tag = member "kind" v in
    match tag with
    | Json.Value.String "bottom" -> Ok CBot
    | Json.Value.String "null" ->
        let* n = count_of v in
        Ok (CNull n)
    | Json.Value.String "boolean" ->
        let* n = count_of v in
        Ok (CBool n)
    | Json.Value.String "integer" ->
        let* n = count_of v in
        Ok (CInt n)
    | Json.Value.String "number" ->
        let* n = count_of v in
        Ok (CNum n)
    | Json.Value.String "string" ->
        let* n = count_of v in
        Ok (CStr n)
    | Json.Value.String "any" ->
        let* n = count_of v in
        Ok (CAny n)
    | Json.Value.String "array" ->
        let* n = count_of v in
        let* items = member "items" v in
        let* elem = go items in
        Ok (CArr (n, elem))
    | Json.Value.String "record" -> (
        let* n = count_of v in
        let* fields = member "fields" v in
        match fields with
        | Json.Value.Object fs ->
            let* cfields =
              List.fold_left
                (fun acc (fname, fv) ->
                  let* acc = acc in
                  let* () =
                    match acc with
                    | prev :: _ when String.compare prev.fname fname >= 0 ->
                        Error
                          (Printf.sprintf
                             "counting json: record field %S does not sort \
                              after %S"
                             fname prev.fname)
                    | _ -> Ok ()
                  in
                  let* occurs = member "occurs" fv in
                  let* occurs = int_of occurs in
                  let* tv = member "type" fv in
                  let* ftype = go tv in
                  Ok ({ fname; occurs; ftype } :: acc))
                (Ok []) fs
            in
            Ok (CRec (n, List.rev cfields))
        | _ -> Error "counting json: record fields must be an object")
    | Json.Value.String "union" -> (
        let* branches = member "branches" v in
        match branches with
        | Json.Value.Array bs ->
            let* ts =
              List.fold_left
                (fun acc b ->
                  let* acc = acc in
                  let* t = go b in
                  Ok (t :: acc))
                (Ok []) bs
            in
            Ok (CUnion (List.rev ts))
        | _ -> Error "counting json: union branches must be an array")
    | Json.Value.String other -> Error ("counting json: unknown kind " ^ other)
    | _ -> Error "counting json: kind must be a string"
  in
  go v
