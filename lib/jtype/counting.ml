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

(* Two records are label-equivalent when they name the same fields. *)
let same_labels xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun x y -> String.equal x.fname y.fname) xs ys

(* --- the fold --------------------------------------------------------------

   The paper's fusion is binary: it fuses the branches of two values by
   class (the kind, or the label set under [Label]) and adds counts within
   a class, so folding it over N values re-fuses the whole union built so
   far N times. The accumulator below keeps one slot per fusion class
   instead: adding a value touches only the slots of its own branches,
   fields are found by name and record branches by label set, so the cost
   of an add is the size of the value added. The canonical value (fields by
   name, branches by [Stdlib.compare]) is built once, by [freeze]. *)

(* Record branches under [Label], keyed by their field names. Every name
   enters the hash: [Hashtbl.hash] of a list stops after ten elements, and
   wide records sharing a ten-key prefix would all chain in one bucket. *)
module Labels = Hashtbl.Make (struct
  type t = cfield list

  let equal = same_labels
  let hash = List.fold_left (fun h f -> (h * 31) + Hashtbl.hash f.fname) 0
end)

(* A scalar slot holds the branches of its class fused so far, [CBot] while
   none was added: presence is not a nonzero count, since a decoded journal
   may carry a count of 0. [num] is [CInt] until a [CNum] is added; under
   [Kind] every record goes to the one key [[]]. *)
type acc = {
  mutable any : t;
  mutable null : t;
  mutable bool : t;
  mutable num : t;
  mutable str : t;
  mutable arr : arr option;
  mutable recs : record Labels.t option;
}

and arr = { mutable arrays : int; elems : acc }
and record = { mutable records : int; fields : (string, field) Hashtbl.t }
and field = { mutable occ : int; facc : acc }

let create () =
  { any = CBot; null = CBot; bool = CBot; num = CBot; str = CBot; arr = None;
    recs = None }

(* [add_k ~equiv k a t] adds [k] copies of [t]: every count of [t] enters
   multiplied by [k], which is what [k] separate adds would sum to. *)
let rec add_k ~equiv k a = function
  | CBot -> ()
  | CUnion ts -> List.iter (add_k ~equiv k a) ts
  | CAny n -> a.any <- CAny ((k * n) + count a.any)
  | CNull n -> a.null <- CNull ((k * n) + count a.null)
  | CBool n -> a.bool <- CBool ((k * n) + count a.bool)
  | CStr n -> a.str <- CStr ((k * n) + count a.str)
  | CInt n ->
      a.num <-
        (match a.num with
         | CNum m -> CNum ((k * n) + m)
         | prev -> CInt ((k * n) + count prev))
  | CNum n -> a.num <- CNum ((k * n) + count a.num)
  | CArr (n, elem) ->
      let s =
        match a.arr with
        | Some s -> s
        | None ->
            let s = { arrays = 0; elems = create () } in
            a.arr <- Some s;
            s
      in
      s.arrays <- s.arrays + (k * n);
      add_k ~equiv k s.elems elem
  | CRec (n, fs) ->
      let recs =
        match a.recs with
        | Some recs -> recs
        | None ->
            let recs = Labels.create 1 in
            a.recs <- Some recs;
            recs
      in
      let key = match equiv with Kind -> [] | Label -> fs in
      let r =
        match Labels.find_opt recs key with
        | Some r -> r
        | None ->
            let r = { records = 0; fields = Hashtbl.create (List.length fs) } in
            Labels.add recs key r;
            r
      in
      r.records <- r.records + (k * n);
      List.iter
        (fun f ->
          let fa =
            match Hashtbl.find_opt r.fields f.fname with
            | Some fa -> fa
            | None ->
                let fa = { occ = 0; facc = create () } in
                Hashtbl.add r.fields f.fname fa;
                fa
          in
          fa.occ <- fa.occ + (k * f.occurs);
          add_k ~equiv k fa.facc f.ftype)
        fs

let add ?(times = 1) ~equiv a t =
  if times < 1 then invalid_arg "Counting.add: times must be positive";
  add_k ~equiv times a t

(* A [CAny] absorbs every other branch, counts included. *)
let rec freeze a =
  let records =
    match a.recs with
    | None -> []
    | Some recs -> Labels.fold (fun _ r bs -> freeze_record r :: bs) recs []
  in
  let arrays =
    match a.arr with None -> [] | Some s -> [ CArr (s.arrays, freeze s.elems) ]
  in
  let branches =
    List.filter
      (function CBot -> false | _ -> true)
      (a.null :: a.bool :: a.num :: a.str :: (arrays @ records))
  in
  match (a.any, branches) with
  | CAny n, bs -> CAny (List.fold_left (fun n b -> n + count b) n bs)
  | _, [] -> CBot
  | _, [ b ] -> b
  | _, bs -> CUnion (List.sort Stdlib.compare bs)

and freeze_record r =
  CRec
    ( r.records,
      sort_fields
        (Hashtbl.fold
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
