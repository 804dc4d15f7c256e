let capitalize s =
  if s = "" then s else String.make 1 (Char.uppercase_ascii s.[0]) ^ String.sub s 1 (String.length s - 1)

let is_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s

let quote_key k = if is_ident k then k else Json.Printer.escape_string k

let rec type_expr (t : Types.t) =
  match t.Types.node with
  | Types.Bot -> "never"
  | Types.Null -> "null"
  | Types.Bool -> "boolean"
  | Types.Int | Types.Num -> "number"
  | Types.Str -> "string"
  | Types.Any -> "unknown"
  | Types.Arr elem -> array_expr elem
  | Types.Rec fields ->
      let member f =
        Printf.sprintf "%s%s: %s" (quote_key f.Types.fname)
          (if f.Types.optional then "?" else "")
          (type_expr f.Types.ftype)
      in
      if fields = [] then "{}"
      else "{ " ^ String.concat "; " (List.map member fields) ^ " }"
  | Types.Union ts -> String.concat " | " (List.map atom ts)

and atom t =
  match t.Types.node with
  | Types.Union _ -> "(" ^ type_expr t ^ ")"
  | _ -> type_expr t

and array_expr elem =
  match elem.Types.node with
  | Types.Union _ | Types.Rec _ -> "(" ^ type_expr elem ^ ")[]"
  | Types.Bot -> "never[]"
  | _ -> type_expr elem ^ "[]"

(* Lift nested records into named interfaces, depth-first, so declarations
   appear before their uses. *)
let declaration ~name t =
  let decls = ref [] in
  let fresh_names = Hashtbl.create 8 in
  (* Names are only ever taken, so the smallest free suffix of a base never
     decreases: probing resumes where the base's last probe stopped instead
     of at 0, which keeps a union of many record branches linear. *)
  let next_suffix = Hashtbl.create 8 in
  let fresh base =
    let rec try_ n =
      let candidate = if n = 0 then base else Printf.sprintf "%s%d" base n in
      if Hashtbl.mem fresh_names candidate then try_ (n + 1)
      else begin
        Hashtbl.add fresh_names candidate ();
        Hashtbl.replace next_suffix base (n + 1);
        candidate
      end
    in
    try_ (Option.value (Hashtbl.find_opt next_suffix base) ~default:0)
  in
  let rec lift prefix (t : Types.t) : Types.t * string option =
    match t.Types.node with
    | Types.Rec fields when fields <> [] ->
        let iface = fresh prefix in
        let members =
          List.map
            (fun f ->
              let inner, named =
                lift (prefix ^ capitalize f.Types.fname) f.Types.ftype
              in
              let rendered =
                match named with Some n -> n | None -> type_expr inner
              in
              Printf.sprintf "  %s%s: %s;" (quote_key f.Types.fname)
                (if f.Types.optional then "?" else "")
                rendered)
            fields
        in
        decls :=
          Printf.sprintf "interface %s {\n%s\n}" iface (String.concat "\n" members)
          :: !decls;
        (t, Some iface)
    | Types.Arr elem ->
        let _, named = lift prefix elem in
        (match named with
         | Some n -> (t, Some (n ^ "[]"))
         | None -> (t, None))
    | Types.Union ts ->
        let parts =
          List.map
            (fun branch ->
              let _, named = lift prefix branch in
              match named with Some n -> n | None -> atom branch)
            ts
        in
        (t, Some (String.concat " | " parts))
    | _ -> (t, None)
  in
  let rendered =
    match t.Types.node with
    | Types.Rec _ ->
        let _, named = lift (capitalize name) t in
        (match named with Some _ -> None | None -> Some (type_expr t))
    | _ ->
        (* the root becomes [type Root = ...]: no lifted record may take
           that name *)
        Hashtbl.add fresh_names (capitalize name) ();
        let _, named = lift (capitalize name) t in
        (match named with
         | Some n -> Some n
         | None -> Some (type_expr t))
  in
  let decls = List.rev !decls in
  match rendered with
  | None -> String.concat "\n\n" decls
  | Some expr ->
      String.concat "\n\n"
        (decls @ [ Printf.sprintf "type %s = %s;" (capitalize name) expr ])
