(* Hand-written recursive-descent parser for the query syntax. *)

type token =
  | Ident of string     (* keywords resolved by the grammar *)
  | Number of Json.Number.parsed
  | Str_lit of string
  | Dollar
  | Dot
  | Comma
  | Colon
  | Pipe
  | Lparen | Rparen
  | Lbrace | Rbrace
  | Lbracket | Rbracket
  | Op of string        (* + - * / == != < <= > >= *)
  | Eof

exception Err of string

let fail fmt = Printf.ksprintf (fun m -> raise (Err m)) fmt

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let emit t = out := t :: !out in
  let i = ref 0 in
  let is_ident_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
  in
  while !i < n do
    let c = src.[!i] in
    (match c with
     | ' ' | '\t' | '\n' | '\r' -> incr i
     | '$' -> emit Dollar; incr i
     | '.' -> emit Dot; incr i
     | ',' -> emit Comma; incr i
     | ':' -> emit Colon; incr i
     | '|' -> emit Pipe; incr i
     | '(' -> emit Lparen; incr i
     | ')' -> emit Rparen; incr i
     | '{' -> emit Lbrace; incr i
     | '}' -> emit Rbrace; incr i
     | '[' -> emit Lbracket; incr i
     | ']' -> emit Rbracket; incr i
     | '+' | '*' | '/' -> emit (Op (String.make 1 c)); incr i
     | '-' ->
         (* negative number literal or minus operator: operator unless the
            previous token forces an operand position AND a digit follows *)
         let operand_position =
           match !out with
           | Op _ :: _ | Comma :: _ | Colon :: _ | Lparen :: _ | Lbracket :: _
           | Pipe :: _ | [] ->
               true
           | Ident k :: _
             when List.mem k
                    [ "filter"; "transform"; "by"; "into"; "not"; "isnull";
                      "sum"; "avg"; "min"; "max"; "and"; "or" ] ->
               true
           | _ -> false
         in
         if operand_position && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9'
         then begin
           let start = !i in
           incr i;
           while
             !i < n
             && (match src.[!i] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
           do
             incr i
           done;
           match Json.Number.parse (String.sub src start (!i - start)) with
           | Ok p -> emit (Number p)
           | Error m -> fail "%s" m
         end
         else begin
           emit (Op "-");
           incr i
         end
     | '=' | '!' | '<' | '>' ->
         let two = if !i + 1 < n && src.[!i + 1] = '=' then 2 else 1 in
         let op = String.sub src !i two in
         if op = "=" || op = "!" then fail "unknown operator %S" op;
         emit (Op op);
         i := !i + two
     | '"' ->
         let lx = Json.Lexer.create ~pos:!i src in
         (match Json.Lexer.skim lx with
          | Json.Lexer.S_string ->
              emit (Str_lit (Json.Lexer.string_of_last lx));
              i := Json.Lexer.offset lx
          | _ -> fail "bad string literal")
     | '0' .. '9' ->
         let start = !i in
         while
           !i < n
           && (match src.[!i] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
         do
           incr i
         done;
         (match Json.Number.parse (String.sub src start (!i - start)) with
          | Ok p -> emit (Number p)
          | Error m -> fail "%s" m)
     | c when is_ident_char c ->
         let start = !i in
         while !i < n && is_ident_char src.[!i] do incr i done;
         emit (Ident (String.sub src start (!i - start)))
     | c -> fail "unexpected character %C" c)
  done;
  List.rev (Eof :: !out)

type state = { mutable toks : token list }

let peek st = match st.toks with t :: _ -> t | [] -> Eof
let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st t name =
  if peek st = t then advance st else fail "expected %s" name

let expect_ident st =
  match peek st with
  | Ident s -> advance st; s
  | _ -> fail "expected an identifier"

(* expression grammar, by descending precedence *)
let rec parse_or st =
  let a = parse_and st in
  match peek st with
  | Ident "or" ->
      advance st;
      Ast.Binop (Ast.Or, a, parse_or st)
  | _ -> a

and parse_and st =
  let a = parse_cmp st in
  match peek st with
  | Ident "and" ->
      advance st;
      Ast.Binop (Ast.And, a, parse_and st)
  | _ -> a

and parse_cmp st =
  let a = parse_add st in
  match peek st with
  | Op "==" -> advance st; Ast.Binop (Ast.Eq, a, parse_add st)
  | Op "!=" -> advance st; Ast.Binop (Ast.Ne, a, parse_add st)
  | Op "<" -> advance st; Ast.Binop (Ast.Lt, a, parse_add st)
  | Op "<=" -> advance st; Ast.Binop (Ast.Le, a, parse_add st)
  | Op ">" -> advance st; Ast.Binop (Ast.Gt, a, parse_add st)
  | Op ">=" -> advance st; Ast.Binop (Ast.Ge, a, parse_add st)
  | _ -> a

and parse_add st =
  let rec go acc =
    match peek st with
    | Op "+" -> advance st; go (Ast.Binop (Ast.Add, acc, parse_mul st))
    | Op "-" -> advance st; go (Ast.Binop (Ast.Sub, acc, parse_mul st))
    | _ -> acc
  in
  go (parse_mul st)

and parse_mul st =
  let rec go acc =
    match peek st with
    | Op "*" -> advance st; go (Ast.Binop (Ast.Mul, acc, parse_unary st))
    | Op "/" -> advance st; go (Ast.Binop (Ast.Div, acc, parse_unary st))
    | _ -> acc
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Ident "not" -> advance st; Ast.Not (parse_unary st)
  | Ident "isnull" -> advance st; Ast.Is_null (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec go acc =
    match peek st with
    | Dot ->
        advance st;
        go (Ast.Field (acc, expect_ident st))
    | Lbracket -> (
        advance st;
        match peek st with
        | Number (Json.Number.Int_lit i) ->
            advance st;
            expect st Rbracket "']'";
            go (Ast.Index (acc, i))
        | _ -> fail "expected an integer index")
    | _ -> acc
  in
  go (parse_atom st)

and parse_atom st =
  match peek st with
  | Dollar -> advance st; Ast.Ctx
  | Number (Json.Number.Int_lit n) -> advance st; Ast.Const (Json.Value.Int n)
  | Number (Json.Number.Float_lit f) -> advance st; Ast.Const (Json.Value.Float f)
  | Str_lit s -> advance st; Ast.Const (Json.Value.String s)
  | Ident "true" -> advance st; Ast.Const (Json.Value.Bool true)
  | Ident "false" -> advance st; Ast.Const (Json.Value.Bool false)
  | Ident "null" -> advance st; Ast.Const Json.Value.Null
  | Lparen ->
      advance st;
      let e = parse_or st in
      expect st Rparen "')'";
      e
  | Lbrace ->
      advance st;
      let rec fields acc =
        match peek st with
        | Rbrace -> advance st; List.rev acc
        | _ -> (
            let name =
              match peek st with
              | Ident s -> advance st; s
              | Str_lit s -> advance st; s
              | _ -> fail "expected a field name"
            in
            expect st Colon "':'";
            let e = parse_or st in
            match peek st with
            | Comma -> advance st; fields ((name, e) :: acc)
            | Rbrace -> advance st; List.rev ((name, e) :: acc)
            | _ -> fail "expected ',' or '}'")
      in
      Ast.Record (fields [])
  | Lbracket ->
      advance st;
      let rec elems acc =
        match peek st with
        | Rbracket -> advance st; List.rev acc
        | _ -> (
            let e = parse_or st in
            match peek st with
            | Comma -> advance st; elems (e :: acc)
            | Rbracket -> advance st; List.rev (e :: acc)
            | _ -> fail "expected ',' or ']'")
      in
      Ast.List (elems [])
  | Ident s -> fail "unexpected identifier %S in expression" s
  | _ -> fail "expected an expression"

let parse_agg st : Ast.agg =
  match expect_ident st with
  | "count" -> Ast.Count
  | "sum" -> Ast.Sum (parse_or st)
  | "avg" -> Ast.Avg (parse_or st)
  | "min" -> Ast.Min (parse_or st)
  | "max" -> Ast.Max (parse_or st)
  | s -> fail "unknown aggregate %S" s

let parse_stage st : Ast.stage =
  match expect_ident st with
  | "filter" -> Ast.Filter (parse_or st)
  | "transform" -> Ast.Transform (parse_or st)
  | "expand" -> (
      match peek st with
      | Ident f -> advance st; Ast.Expand (Some f)
      | _ -> Ast.Expand None)
  | "group" ->
      (match expect_ident st with
       | "by" -> ()
       | _ -> fail "expected 'by' after 'group'");
      let key = parse_or st in
      (match expect_ident st with
       | "into" -> ()
       | _ -> fail "expected 'into'");
      expect st Lbrace "'{'";
      let rec aggs acc =
        let name = expect_ident st in
        expect st Colon "':'";
        let a = parse_agg st in
        match peek st with
        | Comma -> advance st; aggs ((name, a) :: acc)
        | Rbrace -> advance st; List.rev ((name, a) :: acc)
        | _ -> fail "expected ',' or '}'"
      in
      Ast.Group_by (key, aggs [])
  | "sort" ->
      (match expect_ident st with
       | "by" -> ()
       | _ -> fail "expected 'by' after 'sort'");
      let e = parse_or st in
      (match peek st with
       | Ident "desc" -> advance st; Ast.Sort_by (e, `Desc)
       | Ident "asc" -> advance st; Ast.Sort_by (e, `Asc)
       | _ -> Ast.Sort_by (e, `Asc))
  | "top" -> (
      match peek st with
      | Number (Json.Number.Int_lit n) -> advance st; Ast.Top n
      | _ -> fail "expected an integer after 'top'")
  | s -> fail "unknown stage %S" s

let pipeline src =
  match
    let st = { toks = tokenize src } in
    let rec stages acc =
      let s = parse_stage st in
      match peek st with
      | Pipe -> advance st; stages (s :: acc)
      | Eof -> List.rev (s :: acc)
      | _ -> fail "expected '|' or end of query"
    in
    stages []
  with
  | p -> Ok p
  | exception Err m -> Error m
  | exception Json.Lexer.Lex_error (_, m) -> Error m

let pipeline_exn src =
  match pipeline src with Ok p -> p | Error m -> invalid_arg ("Query.Parse: " ^ m)

let expr src =
  match
    let st = { toks = tokenize src } in
    let e = parse_or st in
    if peek st <> Eof then fail "trailing input" else e
  with
  | e -> Ok e
  | exception Err m -> Error m
  | exception Json.Lexer.Lex_error (_, m) -> Error m
