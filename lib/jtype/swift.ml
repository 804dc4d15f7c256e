let capitalize s =
  if s = "" then s
  else String.make 1 (Char.uppercase_ascii s.[0]) ^ String.sub s 1 (String.length s - 1)

(* Split a union into (nullable, remaining branches): Swift expresses
   [T + Null] as [T?]. *)
let split_null (ts : Types.t list) =
  let nulls, rest =
    List.partition (fun t -> match t.Types.node with Types.Null -> true | _ -> false) ts
  in
  (nulls <> [], rest)

let rec type_expr (t : Types.t) =
  match t.Types.node with
  | Types.Bot -> "Never"
  | Types.Null -> "NSNull"
  | Types.Bool -> "Bool"
  | Types.Int -> "Int"
  | Types.Num -> "Double"
  | Types.Str -> "String"
  | Types.Any -> "AnyCodable"
  | Types.Arr elem -> "[" ^ type_expr elem ^ "]"
  | Types.Rec _ -> "Record"  (* placeholder; [declaration] names these *)
  | Types.Union ts -> (
      let nullable, rest = split_null ts in
      match rest with
      | [ t ] when nullable -> type_expr t ^ "?"
      | _ -> "Union" (* placeholder; [declaration] names these *))

let case_name (t : Types.t) =
  match t.Types.node with
  | Types.Bool -> "bool"
  | Types.Int -> "int"
  | Types.Num -> "double"
  | Types.Str -> "string"
  | Types.Null -> "null"
  | Types.Arr _ -> "array"
  | Types.Rec _ -> "object"
  | Types.Any -> "any"
  | Types.Bot -> "never"
  | Types.Union _ -> "union"

let indent n s =
  let pad = String.make n ' ' in
  String.concat "\n"
    (List.map (fun line -> if line = "" then line else pad ^ line)
       (String.split_on_char '\n' s))

(* Emit declarations for a type, returning (swift type expression, nested
   declaration blocks in dependency order). The folds collect members and
   declarations in reverse, so a record or union renders in time linear in
   its width. *)
let rec render name (t : Types.t) : string * string list =
  match t.Types.node with
  | Types.Rec fields ->
      let members, nested =
        List.fold_left
          (fun (members, nested) (f : Types.field) ->
            let field_type_name = capitalize f.Types.fname in
            let expr, decls = render field_type_name f.Types.ftype in
            let expr = if f.Types.optional then expr ^ "?" else expr in
            ( Printf.sprintf "let %s: %s" f.Types.fname expr :: members,
              List.rev_append decls nested ))
          ([], []) fields
      in
      let body =
        String.concat "\n"
          (List.rev_map (indent 4) nested
          @ List.rev_map (fun m -> "    " ^ m) members)
      in
      let decl = Printf.sprintf "struct %s: Codable {\n%s\n}" name body in
      (name, [ decl ])
  | Types.Union ts -> (
      let nullable, rest = split_null ts in
      match rest with
      | [ inner ] when nullable ->
          let expr, decls = render name inner in
          (expr ^ "?", decls)
      | _ ->
          (* each branch is rendered once: its expression serves both its
             case and its decode attempt *)
          let cases, nested =
            List.fold_left
              (fun (cases, nested) branch ->
                let cname = case_name branch in
                let expr, decls = render (name ^ capitalize cname) branch in
                ((cname, expr) :: cases, List.rev_append decls nested))
              ([], []) rest
          in
          let cases = List.rev cases in
          let decode_attempts =
            List.map
              (fun (cname, expr) ->
                Printf.sprintf
                  "if let v = try? container.decode(%s.self) { self = .%s(v); return }"
                  expr cname)
              cases
          in
          let body =
            String.concat "\n"
              (List.rev_map (indent 4) nested
              @ List.map
                  (fun (cname, expr) -> Printf.sprintf "    case %s(%s)" cname expr)
                  cases
              @ [ "    init(from decoder: Decoder) throws {";
                  "        let container = try decoder.singleValueContainer()" ]
              @ List.map (fun a -> "        " ^ a) decode_attempts
              @ [ "        throw DecodingError.typeMismatch(";
                  Printf.sprintf "            %s.self," name;
                  "            .init(codingPath: decoder.codingPath, debugDescription: \"no case matched\"))";
                  "    }" ])
          in
          let decl = Printf.sprintf "enum %s: Codable {\n%s\n}" name body in
          let suffix = if nullable then "?" else "" in
          (name ^ suffix, [ decl ]))
  | Types.Arr elem ->
      let expr, decls = render (name ^ "Element") elem in
      ("[" ^ expr ^ "]", decls)
  | _ -> (type_expr t, [])

let declaration ~name t =
  let root = capitalize name in
  let expr, decls = render root t in
  (* When the rendered expression is exactly the root declaration's name,
     the declaration itself is the deliverable; otherwise alias it. *)
  if String.equal expr root then String.concat "\n\n" decls
  else
    String.concat "\n\n" (decls @ [ Printf.sprintf "typealias %s = %s" root expr ])
