type dup_policy = Keep_first | Keep_last | Reject | Keep_all

type options = {
  dup_keys : dup_policy;
  max_depth : int;
  allow_trailing : bool;
  max_doc_bytes : int option;
  max_nodes : int option;
  max_string_bytes : int option;
}

let default_options =
  { dup_keys = Keep_last;
    max_depth = 512;
    allow_trailing = false;
    max_doc_bytes = None;
    max_nodes = None;
    max_string_bytes = None }

type budget_violation =
  | Depth_exceeded
  | Bytes_exceeded
  | Nodes_exceeded
  | String_exceeded
  | Documents_exceeded

type error_kind = Syntax | Budget_exceeded of budget_violation

type error = { position : Lexer.position; message : string; kind : error_kind }

exception Parse_error of error

let violation_name = function
  | Depth_exceeded -> "max-depth"
  | Bytes_exceeded -> "max-bytes"
  | Nodes_exceeded -> "max-nodes"
  | String_exceeded -> "max-string"
  | Documents_exceeded -> "max-docs"

let is_budget_error e =
  match e.kind with Budget_exceeded _ -> true | Syntax -> false

let string_of_error { position; message; _ } =
  Printf.sprintf "line %d, column %d: %s" position.Lexer.line position.Lexer.column
    message

let fail ?(kind = Syntax) position message =
  raise (Parse_error { position; message; kind })

(* Whether two fields share a key: a pairwise scan up to 12 fields, one
   table above. *)
let has_dup_keys fields =
  let rec mem k = function
    | [] -> false
    | (k', _) :: rest -> String.equal k k' || mem k rest
  in
  let rec small = function
    | [] -> false
    | (k, _) :: rest -> mem k rest || small rest
  in
  if List.compare_length_with fields 12 <= 0 then small fields
  else
    let seen = Hashtbl.create 32 in
    List.exists
      (fun (k, _) ->
        Hashtbl.mem seen k
        || begin
             Hashtbl.add seen k ();
             false
           end)
      fields

let apply_dup_policy policy fields_rev last_pos =
  (* [fields_rev] is in reverse document order. Every policy keeps every
     field of an object whose keys are distinct, the common case, which
     then pays for one scan and no table under 13 fields. *)
  let fields = List.rev fields_rev in
  match policy with
  | Keep_all -> fields
  | Keep_first | Keep_last | Reject when not (has_dup_keys fields_rev) -> fields
  | Reject ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (k, _) ->
          if Hashtbl.mem seen k then
            fail last_pos (Printf.sprintf "duplicate key %S" k)
          else Hashtbl.add seen k ())
        fields;
      fields
  | Keep_first ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (k, _) ->
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        fields
  | Keep_last ->
      (* JavaScript object semantics: a repeated key keeps its first
         position but its last value. *)
      let latest = Hashtbl.create 8 in
      List.iter (fun (k, v) -> Hashtbl.replace latest k v) fields;
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun (k, _) ->
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            Some (k, Hashtbl.find latest k)
          end)
        fields

(* --- the document cursor ---------------------------------------------------

   One document's lexer, its options (the limits) and its counts. The
   tree walk below and every streaming walk ([Shape]'s recording and
   skipping walks, [Compile]'s passes) read their tokens through it, so the
   node, byte and depth accounting and the grammar errors exist once.

   Every walk reads a value the same way: the depth check, then its first
   token, then that token's node and byte spends; except an array's first
   element, whose token is read (to see whether it is [']']) before its
   checks ([check_value]). *)

type cursor = {
  lx : Lexer.t;
  start : int;
  options : options;
  mutable nodes : int;
  mutable tokens : int;
  mutable skipped : int;
}

let cursor options src ~pos =
  { lx = Lexer.create ~pos ?max_string_bytes:options.max_string_bytes src;
    start = pos; options; nodes = 0; tokens = 0; skipped = 0 }

let next c =
  c.tokens <- c.tokens + 1;
  Lexer.skim c.lx

let spend_node c =
  c.nodes <- c.nodes + 1;
  match c.options.max_nodes with
  | Some limit when c.nodes > limit ->
      fail ~kind:(Budget_exceeded Nodes_exceeded) (Lexer.tok_pos c.lx)
        (Printf.sprintf "document exceeds %d nodes" limit)
  | _ -> ()

(* Byte budget against the last token's start — positions are built lazily,
   only if the check fails. *)
let check_bytes_tok c =
  match c.options.max_doc_bytes with
  | Some limit when Lexer.tok_start c.lx - c.start > limit ->
      fail ~kind:(Budget_exceeded Bytes_exceeded) (Lexer.tok_pos c.lx)
        (Printf.sprintf "document exceeds %d bytes" limit)
  | _ -> ()

let check_bytes_end c =
  match c.options.max_doc_bytes with
  | Some limit when Lexer.offset c.lx - c.start > limit ->
      fail ~kind:(Budget_exceeded Bytes_exceeded) (Lexer.position c.lx)
        (Printf.sprintf "document exceeds %d bytes" limit)
  | _ -> ()

let check_depth c depth =
  if depth > c.options.max_depth then
    fail ~kind:(Budget_exceeded Depth_exceeded) (Lexer.position c.lx)
      "maximum nesting depth exceeded"

let check_value c depth =
  check_depth c depth;
  spend_node c;
  check_bytes_tok c

let unexpected c what t =
  fail (Lexer.tok_pos c.lx) (Printf.sprintf "expected %s, got %s" what (Lexer.skim_name t))

(* --- the tree walk --------------------------------------------------------- *)

let rec read c depth =
  check_depth c depth;
  let tok = next c in
  spend_node c;
  check_bytes_tok c;
  read_tok c tok depth

and read_tok c tok depth =
  match tok with
  | Lexer.S_null -> Value.Null
  | Lexer.S_true -> Value.Bool true
  | Lexer.S_false -> Value.Bool false
  | Lexer.S_int | Lexer.S_float -> (
      match Lexer.number_of_last c.lx with
      | Number.Int_lit n -> Value.Int n
      | Number.Float_lit f -> Value.Float f)
  | Lexer.S_string -> Value.String (Lexer.string_of_last c.lx)
  | Lexer.S_lbracket -> (
      match next c with
      | Lexer.S_rbracket -> Value.Array []
      | tok ->
          check_value c (depth + 1);
          let first = read_tok c tok (depth + 1) in
          Value.Array (elements c depth [ first ]))
  | Lexer.S_lbrace -> (
      match next c with
      | Lexer.S_rbrace -> Value.Object []
      | tok -> members c depth tok [])
  | Lexer.S_rbrace | Lexer.S_rbracket | Lexer.S_colon | Lexer.S_comma | Lexer.S_eof ->
      unexpected c "a value" tok

and elements c depth acc =
  match next c with
  | Lexer.S_comma -> elements c depth (read c (depth + 1) :: acc)
  | Lexer.S_rbracket -> List.rev acc
  | t -> unexpected c "',' or ']'" t

and members c depth tok acc =
  match tok with
  | Lexer.S_string -> (
      let key = Lexer.string_of_last c.lx in
      match next c with
      | Lexer.S_colon -> (
          let acc = (key, read c (depth + 1)) :: acc in
          match next c with
          | Lexer.S_comma -> members c depth (next c) acc
          | Lexer.S_rbrace ->
              Value.Object (apply_dup_policy c.options.dup_keys acc (Lexer.tok_pos c.lx))
          | t -> unexpected c "',' or '}'" t)
      | t -> unexpected c "':'" t)
  | t -> unexpected c "a field name" t

(* Per-document observability: emitted by every entry point below on the
   [telemetry] sink (default {!Telemetry.nop}, one branch per call).
   Headroom histograms record how close each document came to its budget —
   the early-warning signal for a corpus drifting toward its caps. *)
let docs_c = Telemetry.counter "parse.docs"
let bytes_c = Telemetry.counter "parse.bytes"
let nodes_c = Telemetry.counter "parse.nodes"
let doc_bytes_h = Telemetry.histogram "parse.doc_bytes"
let doc_nodes_h = Telemetry.histogram "parse.doc_nodes"
let headroom_bytes_h = Telemetry.histogram "parse.budget_headroom_bytes"
let headroom_nodes_h = Telemetry.histogram "parse.budget_headroom_nodes"
let syntax_errors_c = Telemetry.counter "parse.errors.syntax"

let emit_doc tele options ~bytes ~nodes =
  if Telemetry.is_recording tele then begin
    Telemetry.add tele docs_c 1;
    Telemetry.add tele bytes_c bytes;
    Telemetry.add tele nodes_c nodes;
    Telemetry.sample tele doc_bytes_h (float_of_int bytes);
    Telemetry.sample tele doc_nodes_h (float_of_int nodes);
    (match options.max_doc_bytes with
     | Some limit ->
         Telemetry.sample tele headroom_bytes_h (float_of_int (limit - bytes))
     | None -> ());
    match options.max_nodes with
    | Some limit ->
        Telemetry.sample tele headroom_nodes_h (float_of_int (limit - nodes))
    | None -> ()
  end

let emit_error tele (e : error) =
  if Telemetry.is_recording tele then
    match e.kind with
    | Syntax -> Telemetry.add tele syntax_errors_c 1
    | Budget_exceeded v ->
        Telemetry.count tele ("parse.errors.budget." ^ violation_name v) 1

let run lx f =
  try Ok (f ()) with
  | Parse_error e -> Error e
  | Lexer.Lex_error (position, message) -> Error { position; message; kind = Syntax }
  | Lexer.Limit_error (position, message) ->
      Error { position; message; kind = Budget_exceeded String_exceeded }
  | Stack_overflow ->
      Error
        { position = Lexer.position lx;
          message = "nesting too deep (stack overflow)";
          kind = Budget_exceeded Depth_exceeded }

let with_error_telemetry tele result =
  (match result with Error e -> emit_error tele e | Ok _ -> ());
  result

let parse ?(options = default_options) ?(telemetry = Telemetry.nop) src =
  let c = cursor options src ~pos:0 in
  with_error_telemetry telemetry
    (run c.lx (fun () ->
         let v = read c 0 in
         check_bytes_end c;
         if not options.allow_trailing then begin
           match next c with
           | Lexer.S_eof -> ()
           | t ->
               fail (Lexer.tok_pos c.lx)
                 (Printf.sprintf "trailing input: %s" (Lexer.skim_name t))
         end;
         emit_doc telemetry options ~bytes:(Lexer.offset c.lx) ~nodes:c.nodes;
         v))

let parse_exn ?options src =
  match parse ?options src with
  | Ok v -> v
  | Error e -> failwith (string_of_error e)

(* One lexer over the whole text, so positions are absolute; each document
   is accounted from its first byte, as [parse_substring] accounts it. *)
let parse_many ?(options = default_options) ?(telemetry = Telemetry.nop) src =
  let whole = cursor options src ~pos:0 in
  with_error_telemetry telemetry
    (run whole.lx (fun () ->
         let rec go acc =
           match Lexer.skim whole.lx with
           | Lexer.S_eof -> List.rev acc
           | tok ->
               let c = { whole with start = Lexer.tok_start whole.lx; nodes = 0 } in
               check_value c 0;
               let v = read_tok c tok 0 in
               check_bytes_end c;
               emit_doc telemetry options ~bytes:(Lexer.offset c.lx - c.start)
                 ~nodes:c.nodes;
               go (v :: acc)
         in
         go []))

let parse_substring ?(options = default_options) ?(telemetry = Telemetry.nop) src
    ~pos =
  let c = cursor options src ~pos in
  with_error_telemetry telemetry
    (run c.lx (fun () ->
         let v = read c 0 in
         check_bytes_end c;
         let stop = Lexer.offset c.lx in
         emit_doc telemetry options ~bytes:(stop - pos) ~nodes:c.nodes;
         (v, stop)))

let fold_documents ?options src ~init ~f =
  let n = String.length src in
  let rec skip_ws i =
    if i < n && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\n' || src.[i] = '\r')
    then skip_ws (i + 1)
    else i
  in
  let rec go acc pos =
    let pos = skip_ws pos in
    if pos >= n then Ok acc
    else
      match parse_substring ?options src ~pos with
      | Ok (v, stop) -> go (f acc v) stop
      | Error e -> Error e
  in
  go init 0
