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

let parse_value options lx =
  (* resource accounting: nodes and bytes are counted per document, so the
     caller resets them simply by calling [parse_value] again *)
  let nodes = ref 0 in
  let start_offset = (Lexer.position lx).Lexer.offset in
  let spend_node pos =
    incr nodes;
    match options.max_nodes with
    | Some limit when !nodes > limit ->
        fail ~kind:(Budget_exceeded Nodes_exceeded) pos
          (Printf.sprintf "document exceeds %d nodes" limit)
    | _ -> ()
  in
  let check_bytes pos =
    match options.max_doc_bytes with
    | Some limit when pos.Lexer.offset - start_offset > limit ->
        fail ~kind:(Budget_exceeded Bytes_exceeded) pos
          (Printf.sprintf "document exceeds %d bytes" limit)
    | _ -> ()
  in
  let rec value depth =
    if depth > options.max_depth then
      fail ~kind:(Budget_exceeded Depth_exceeded) (Lexer.position lx)
        "maximum nesting depth exceeded";
    let tok, pos = Lexer.next lx in
    spend_node pos;
    check_bytes pos;
    match tok with
    | Lexer.Null_tok -> Value.Null
    | Lexer.True -> Value.Bool true
    | Lexer.False -> Value.Bool false
    | Lexer.Number_tok (Number.Int_lit n) -> Value.Int n
    | Lexer.Number_tok (Number.Float_lit f) -> Value.Float f
    | Lexer.String_tok s -> Value.String s
    | Lexer.Lbracket -> array depth pos
    | Lexer.Lbrace -> object_ depth pos
    | (Lexer.Rbrace | Lexer.Rbracket | Lexer.Colon | Lexer.Comma | Lexer.Eof) as t ->
        fail pos (Printf.sprintf "expected a value, got %s" (Lexer.token_name t))
  and array depth _open_pos =
    match Lexer.peek lx with
    | Lexer.Rbracket, _ ->
        ignore (Lexer.next lx);
        Value.Array []
    | _ ->
        let rec elements acc =
          let v = value (depth + 1) in
          let tok, pos = Lexer.next lx in
          match tok with
          | Lexer.Comma -> elements (v :: acc)
          | Lexer.Rbracket -> List.rev (v :: acc)
          | t -> fail pos (Printf.sprintf "expected ',' or ']', got %s" (Lexer.token_name t))
        in
        Value.Array (elements [])
  and object_ depth _open_pos =
    match Lexer.peek lx with
    | Lexer.Rbrace, _ ->
        ignore (Lexer.next lx);
        Value.Object []
    | _ ->
        let rec fields acc =
          let tok, pos = Lexer.next lx in
          match tok with
          | Lexer.String_tok key -> (
              let tok, pos = Lexer.next lx in
              match tok with
              | Lexer.Colon -> (
                  let v = value (depth + 1) in
                  let tok, pos = Lexer.next lx in
                  match tok with
                  | Lexer.Comma -> fields ((key, v) :: acc)
                  | Lexer.Rbrace -> ((key, v) :: acc, pos)
                  | t ->
                      fail pos
                        (Printf.sprintf "expected ',' or '}', got %s" (Lexer.token_name t)))
              | t -> fail pos (Printf.sprintf "expected ':', got %s" (Lexer.token_name t)))
          | t -> fail pos (Printf.sprintf "expected a field name, got %s" (Lexer.token_name t))
        in
        let fields_rev, close_pos = fields [] in
        Value.Object (apply_dup_policy options.dup_keys fields_rev close_pos)
  in
  let v = value 0 in
  check_bytes (Lexer.position lx);
  (v, !nodes)

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

let lexer_of ?pos options src =
  Lexer.create ?pos ?max_string_bytes:options.max_string_bytes src

let with_error_telemetry tele result =
  (match result with Error e -> emit_error tele e | Ok _ -> ());
  result

let parse ?(options = default_options) ?(telemetry = Telemetry.nop) src =
  let lx = lexer_of options src in
  with_error_telemetry telemetry
    (run lx (fun () ->
         let start = (Lexer.position lx).Lexer.offset in
         let v, nodes = parse_value options lx in
         if not options.allow_trailing then begin
           match Lexer.next lx with
           | Lexer.Eof, _ -> ()
           | t, pos ->
               fail pos (Printf.sprintf "trailing input: %s" (Lexer.token_name t))
         end;
         emit_doc telemetry options
           ~bytes:((Lexer.position lx).Lexer.offset - start)
           ~nodes;
         v))

let parse_exn ?options src =
  match parse ?options src with
  | Ok v -> v
  | Error e -> failwith (string_of_error e)

let parse_many ?(options = default_options) ?(telemetry = Telemetry.nop) src =
  let lx = lexer_of options src in
  with_error_telemetry telemetry
    (run lx (fun () ->
         let rec go acc =
           match Lexer.peek lx with
           | Lexer.Eof, _ -> List.rev acc
           | _ ->
               let start = (Lexer.position lx).Lexer.offset in
               let v, nodes = parse_value options lx in
               emit_doc telemetry options
                 ~bytes:((Lexer.position lx).Lexer.offset - start)
                 ~nodes;
               go (v :: acc)
         in
         go []))

let parse_substring ?(options = default_options) ?(telemetry = Telemetry.nop) src
    ~pos =
  let lx = lexer_of ~pos options src in
  with_error_telemetry telemetry
    (run lx (fun () ->
         let v, nodes = parse_value options lx in
         let stop = (Lexer.position lx).Lexer.offset in
         emit_doc telemetry options ~bytes:(stop - pos) ~nodes;
         (v, stop)))
