(* The tree parser as it was before it moved onto [Json.Lexer.skim]: a
   token API of its own ([next] and [peek], each token with its position,
   strings unescaped and numbers evaluated) over a copy of the lexer's
   scanners, and the recursive descent with its own node, byte and depth
   accounting. test_json's "parser = reference parser" property compares
   [Json.Parser.parse], [parse_substring] and [parse_many] with it, as
   [Pairwise] keeps the paper's pairwise fusion for the inference folds.

   Errors are [Json.Parser]'s: its [fail] and [run], and the lexer's
   exceptions. Each entry point also returns the [(bytes, nodes)] it
   accounted per document, including the documents before a failure, for
   comparison with the parser's [parse.bytes] and [parse.nodes]. One fix
   is carried over: [parse_many] accounts each document from its first
   token's first byte, where it used to start after that token, so
   [max_doc_bytes] never stopped a one-token document. *)

module L = Json.Lexer
module P = Json.Parser

type token =
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Colon
  | Comma
  | True
  | False
  | Null_tok
  | String_tok of string
  | Number_tok of Json.Number.parsed
  | Eof

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable lookahead : (token * L.position) option;
  buf : Buffer.t;
  max_string_bytes : int option;
}

let create ?(pos = 0) ?max_string_bytes src =
  { src; pos; line = 1; bol = pos; lookahead = None; buf = Buffer.create 64;
    max_string_bytes }

let position_at lx off = { L.offset = off; line = lx.line; column = off - lx.bol + 1 }
let position lx = position_at lx lx.pos
let error lx off msg = raise (L.Lex_error (position_at lx off, msg))

let token_name = function
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Colon -> "':'"
  | Comma -> "','"
  | True -> "'true'"
  | False -> "'false'"
  | Null_tok -> "'null'"
  | String_tok _ -> "string"
  | Number_tok _ -> "number"
  | Eof -> "end of input"

let is_digit c = c >= '0' && c <= '9'

let rec skip_ws lx =
  if lx.pos < String.length lx.src then
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_ws lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        lx.bol <- lx.pos;
        skip_ws lx
    | _ -> ()

let expect_keyword lx word token =
  let n = String.length word in
  let start = lx.pos in
  if start + n <= String.length lx.src && String.sub lx.src start n = word then begin
    lx.pos <- start + n;
    token
  end
  else error lx start (Printf.sprintf "expected %s" word)

let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex_value lx off c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> error lx off "invalid hex digit in \\u escape"

(* verbatim, evaluation order included: of several bad digits, the one
   reported is the one the compiler evaluates first *)
let read_hex4 lx =
  let n = String.length lx.src in
  if lx.pos + 4 > n then error lx lx.pos "truncated \\u escape";
  let v =
    (hex_value lx lx.pos lx.src.[lx.pos] lsl 12)
    lor (hex_value lx (lx.pos + 1) lx.src.[lx.pos + 1] lsl 8)
    lor (hex_value lx (lx.pos + 2) lx.src.[lx.pos + 2] lsl 4)
    lor hex_value lx (lx.pos + 3) lx.src.[lx.pos + 3]
  in
  lx.pos <- lx.pos + 4;
  v

let read_string lx =
  let n = String.length lx.src in
  let start = lx.pos in
  lx.pos <- lx.pos + 1;
  let buf = lx.buf in
  Buffer.clear buf;
  let check_budget () =
    match lx.max_string_bytes with
    | Some limit when Buffer.length buf > limit ->
        raise
          (L.Limit_error
             (position_at lx start, Printf.sprintf "string literal exceeds %d bytes" limit))
    | _ -> ()
  in
  let rec go () =
    check_budget ();
    if lx.pos >= n then error lx start "unterminated string"
    else
      match lx.src.[lx.pos] with
      | '"' -> lx.pos <- lx.pos + 1
      | '\\' ->
          lx.pos <- lx.pos + 1;
          if lx.pos >= n then error lx start "unterminated string";
          let simple c =
            Buffer.add_char buf c;
            lx.pos <- lx.pos + 1
          in
          (match lx.src.[lx.pos] with
           | '"' -> simple '"'
           | '\\' -> simple '\\'
           | '/' -> simple '/'
           | 'b' -> simple '\b'
           | 'f' -> simple '\012'
           | 'n' -> simple '\n'
           | 'r' -> simple '\r'
           | 't' -> simple '\t'
           | 'u' ->
               lx.pos <- lx.pos + 1;
               let u = read_hex4 lx in
               if u >= 0xD800 && u <= 0xDBFF then begin
                 if lx.pos + 2 <= n && lx.src.[lx.pos] = '\\' && lx.src.[lx.pos + 1] = 'u'
                 then begin
                   lx.pos <- lx.pos + 2;
                   let lo = read_hex4 lx in
                   if lo >= 0xDC00 && lo <= 0xDFFF then
                     add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                   else error lx lx.pos "invalid low surrogate"
                 end
                 else error lx lx.pos "unpaired high surrogate"
               end
               else if u >= 0xDC00 && u <= 0xDFFF then error lx lx.pos "unpaired low surrogate"
               else add_utf8 buf u
           | c -> error lx lx.pos (Printf.sprintf "invalid escape '\\%c'" c));
          go ()
      | c when Char.code c < 0x20 -> error lx lx.pos "unescaped control character in string"
      | c ->
          Buffer.add_char buf c;
          lx.pos <- lx.pos + 1;
          go ()
  in
  go ();
  Buffer.contents buf

(* the longest run of '-'? digits ('.' digits)? ([eE] [+-]? digits)?, every
   part allowed empty, judged by [Json.Number.parse] *)
let read_number lx =
  let src = lx.src and n = String.length lx.src in
  let start = lx.pos in
  let digits () = while lx.pos < n && is_digit src.[lx.pos] do lx.pos <- lx.pos + 1 done in
  if lx.pos < n && src.[lx.pos] = '-' then lx.pos <- lx.pos + 1;
  digits ();
  if lx.pos < n && src.[lx.pos] = '.' then begin
    lx.pos <- lx.pos + 1;
    digits ()
  end;
  if lx.pos < n && (src.[lx.pos] = 'e' || src.[lx.pos] = 'E') then begin
    lx.pos <- lx.pos + 1;
    if lx.pos < n && (src.[lx.pos] = '+' || src.[lx.pos] = '-') then lx.pos <- lx.pos + 1;
    digits ()
  end;
  match Json.Number.parse (String.sub src start (lx.pos - start)) with
  | Ok parsed -> parsed
  | Error msg -> error lx start msg

let lex_token lx =
  skip_ws lx;
  let start = lx.pos in
  let pos = position_at lx start in
  let one tok =
    lx.pos <- lx.pos + 1;
    tok
  in
  let tok =
    if lx.pos >= String.length lx.src then Eof
    else
      match lx.src.[lx.pos] with
      | '{' -> one Lbrace
      | '}' -> one Rbrace
      | '[' -> one Lbracket
      | ']' -> one Rbracket
      | ':' -> one Colon
      | ',' -> one Comma
      | 't' -> expect_keyword lx "true" True
      | 'f' -> expect_keyword lx "false" False
      | 'n' -> expect_keyword lx "null" Null_tok
      | '"' -> String_tok (read_string lx)
      | '-' | '0' .. '9' -> Number_tok (read_number lx)
      | c -> error lx start (Printf.sprintf "unexpected character %C" c)
  in
  (tok, pos)

let next lx =
  match lx.lookahead with
  | Some t ->
      lx.lookahead <- None;
      t
  | None -> lex_token lx

let peek lx =
  match lx.lookahead with
  | Some t -> t
  | None ->
      let t = lex_token lx in
      lx.lookahead <- Some t;
      t

let budget v = P.Budget_exceeded v

let parse_value ?start (options : P.options) lx =
  let nodes = ref 0 in
  let start_offset = match start with Some s -> s | None -> (position lx).L.offset in
  let spend_node pos =
    incr nodes;
    match options.max_nodes with
    | Some limit when !nodes > limit ->
        P.fail ~kind:(budget P.Nodes_exceeded) pos
          (Printf.sprintf "document exceeds %d nodes" limit)
    | _ -> ()
  in
  let check_bytes pos =
    match options.max_doc_bytes with
    | Some limit when pos.L.offset - start_offset > limit ->
        P.fail ~kind:(budget P.Bytes_exceeded) pos
          (Printf.sprintf "document exceeds %d bytes" limit)
    | _ -> ()
  in
  let got what t = Printf.sprintf "expected %s, got %s" what (token_name t) in
  let rec value depth =
    if depth > options.max_depth then
      P.fail ~kind:(budget P.Depth_exceeded) (position lx) "maximum nesting depth exceeded";
    let tok, pos = next lx in
    spend_node pos;
    check_bytes pos;
    match tok with
    | Null_tok -> Json.Value.Null
    | True -> Json.Value.Bool true
    | False -> Json.Value.Bool false
    | Number_tok (Json.Number.Int_lit n) -> Json.Value.Int n
    | Number_tok (Json.Number.Float_lit f) -> Json.Value.Float f
    | String_tok s -> Json.Value.String s
    | Lbracket -> array depth
    | Lbrace -> object_ depth
    | (Rbrace | Rbracket | Colon | Comma | Eof) as t -> P.fail pos (got "a value" t)
  and array depth =
    match peek lx with
    | Rbracket, _ ->
        ignore (next lx);
        Json.Value.Array []
    | _ ->
        let rec elements acc =
          let v = value (depth + 1) in
          match next lx with
          | Comma, _ -> elements (v :: acc)
          | Rbracket, _ -> List.rev (v :: acc)
          | t, pos -> P.fail pos (got "',' or ']'" t)
        in
        Json.Value.Array (elements [])
  and object_ depth =
    match peek lx with
    | Rbrace, _ ->
        ignore (next lx);
        Json.Value.Object []
    | _ ->
        let rec fields acc =
          match next lx with
          | String_tok key, _ -> (
              match next lx with
              | Colon, _ -> (
                  let v = value (depth + 1) in
                  match next lx with
                  | Comma, _ -> fields ((key, v) :: acc)
                  | Rbrace, pos -> ((key, v) :: acc, pos)
                  | t, pos -> P.fail pos (got "',' or '}'" t))
              | t, pos -> P.fail pos (got "':'" t))
          | t, pos -> P.fail pos (got "a field name" t)
        in
        let fields_rev, close_pos = fields [] in
        Json.Value.Object (P.apply_dup_policy options.dup_keys fields_rev close_pos)
  in
  let v = value 0 in
  check_bytes (position lx);
  (v, !nodes)

(* [Json.Parser.run] maps the errors; its lexer argument only places a
   [Stack_overflow], which the shallow documents of the property never
   reach *)
let run (options : P.options) ?pos src f =
  let lx = create ?pos ?max_string_bytes:options.max_string_bytes src in
  let docs = ref [] in
  let r = P.run (L.create "") (fun () -> f lx docs) in
  (r, List.rev !docs)

let parse options src =
  run options src (fun lx docs ->
      let start = (position lx).L.offset in
      let v, nodes = parse_value options lx in
      if not options.P.allow_trailing then begin
        match next lx with
        | Eof, _ -> ()
        | t, pos -> P.fail pos (Printf.sprintf "trailing input: %s" (token_name t))
      end;
      docs := [ ((position lx).L.offset - start, nodes) ];
      v)

let parse_substring options src ~pos =
  run options ~pos src (fun lx docs ->
      let v, nodes = parse_value options lx in
      let stop = (position lx).L.offset in
      docs := [ (stop - pos, nodes) ];
      (v, stop))

let parse_many options src =
  run options src (fun lx docs ->
      let rec go acc =
        match peek lx with
        | Eof, _ -> List.rev acc
        | _, first ->
            let start = first.L.offset in
            let v, nodes = parse_value ~start options lx in
            docs := ((position lx).L.offset - start, nodes) :: !docs;
            go (v :: acc)
      in
      go [])
