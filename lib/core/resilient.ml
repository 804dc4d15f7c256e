type budget = {
  max_doc_bytes : int option;
  max_nodes : int option;
  max_string_bytes : int option;
  max_depth : int;
  max_docs : int option;
}

let default_budget =
  { max_doc_bytes = Some (8 * 1024 * 1024);
    max_nodes = Some 1_000_000;
    max_string_bytes = Some (1024 * 1024);
    max_depth = 256;
    max_docs = None }

let unbounded_budget =
  { max_doc_bytes = None;
    max_nodes = None;
    max_string_bytes = None;
    max_depth = Json.Parser.default_options.Json.Parser.max_depth;
    max_docs = None }

let parser_options ?(base = Json.Parser.default_options) b =
  { base with
    Json.Parser.max_depth = b.max_depth;
    max_doc_bytes = b.max_doc_bytes;
    max_nodes = b.max_nodes;
    max_string_bytes = b.max_string_bytes }

type fault_kind =
  | Parse of Json.Parser.error_kind
  | Shard of string

let kind_name = function
  | Parse Json.Parser.Syntax -> "syntax"
  | Parse (Json.Parser.Budget_exceeded v) -> "budget:" ^ Json.Parser.violation_name v
  | Shard label -> "shard:" ^ label

let all_violations =
  [ Json.Parser.Depth_exceeded; Json.Parser.Bytes_exceeded;
    Json.Parser.Nodes_exceeded; Json.Parser.String_exceeded;
    Json.Parser.Documents_exceeded ]

let violation_of_name name =
  List.find_opt (fun v -> Json.Parser.violation_name v = name) all_violations

let kind_of_name name =
  match String.index_opt name ':' with
  | None when name = "syntax" -> Some (Parse Json.Parser.Syntax)
  | None -> None
  | Some i -> (
      let prefix = String.sub name 0 i in
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      match prefix with
      | "budget" ->
          Option.map
            (fun v -> Parse (Json.Parser.Budget_exceeded v))
            (violation_of_name rest)
      | "shard" -> Some (Shard rest)
      | _ -> None)

type dead_letter = {
  line : int;
  byte_offset : int;
  error : string;
  kind : fault_kind;
  cause : string;
  attempts : int;
  raw_prefix : string;
}

type report = {
  ok : int;
  quarantined : int;
  budget_killed : int;
  budget_causes : (Json.Parser.budget_violation * int) list;
  poisoned : int;
  truncated : bool;
}

let empty_report =
  { ok = 0; quarantined = 0; budget_killed = 0; budget_causes = []; poisoned = 0;
    truncated = false }

(* deterministic order for reports and merges: by flag-style name *)
let sort_causes causes =
  List.sort
    (fun (a, _) (b, _) ->
      String.compare (Json.Parser.violation_name a) (Json.Parser.violation_name b))
    causes

let add_cause causes v =
  let rec go = function
    | [] -> [ (v, 1) ]
    | (v', n) :: rest when v' = v -> (v', n + 1) :: rest
    | c :: rest -> c :: go rest
  in
  go causes

let merge_causes a b =
  sort_causes
    (List.fold_left
       (fun acc (v, n) ->
         let rec bump = function
           | [] -> [ (v, n) ]
           | (v', m) :: rest when v' = v -> (v', m + n) :: rest
           | c :: rest -> c :: bump rest
         in
         bump acc)
       a b)

type ingest = {
  docs : Json.Value.t list;
  dead : dead_letter list;
  report : report;
}

let prefix_len = 80

let raw_prefix src ~lo ~hi =
  let hi = min hi (lo + prefix_len) in
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c)
    (String.sub src lo (max 0 (hi - lo)))

(* Global (whole-input) line/column for an error reported relative to a
   document that starts on [start_line]. *)
let global_error ~start_line (e : Json.Parser.error) =
  Printf.sprintf "line %d, column %d: %s"
    (start_line + e.Json.Parser.position.Json.Lexer.line - 1)
    e.Json.Parser.position.Json.Lexer.column e.Json.Parser.message

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let docs_ok_c = Telemetry.counter "ingest.docs_ok"
let docs_quarantined_c = Telemetry.counter "ingest.docs_quarantined"

let scan ?(budget = default_budget) ?options ?(first_line = 1)
    ?(base_offset = 0) ?(attempt = 1) ?(tick = fun () -> ())
    ?(telemetry = Telemetry.nop) ~step src =
  let options =
    { (parser_options ?base:options budget) with Json.Parser.allow_trailing = true }
  in
  let n = String.length src in
  (* line numbers are needed only by dead letters: newlines are counted
     lazily, up to the start of each letter, and never twice. [first_line]
     and [base_offset] let a shard of a larger input report line numbers
     and byte offsets in the coordinates of the whole input. *)
  let line = ref first_line in
  let counted = ref 0 in
  let line_at off =
    for i = !counted to off - 1 do
      (* off <= n: every letter starts inside the text *)
      if String.unsafe_get src i = '\n' then incr line
    done;
    counted := max !counted off;
    !line
  in
  let rec skip_ws pos = if pos < n && is_ws src.[pos] then skip_ws (pos + 1) else pos in
  let next_line off =
    match String.index_from_opt src off '\n' with Some i -> i + 1 | None -> n
  in
  let dead = ref [] in
  let ok = ref 0 and quarantined = ref 0 and budget_killed = ref 0 in
  let causes = ref [] in
  let truncated = ref false in
  let add_dead ~line ~start ~stop ~error ~kind =
    (match kind with
     | Json.Parser.Budget_exceeded v ->
         incr budget_killed;
         causes := add_cause !causes v;
         Telemetry.count telemetry
           ("ingest.budget." ^ Json.Parser.violation_name v) 1
     | Json.Parser.Syntax ->
         incr quarantined;
         Telemetry.add telemetry docs_quarantined_c 1);
    dead :=
      { line;
        byte_offset = base_offset + start;
        error;
        kind = Parse kind;
        cause = kind_name (Parse kind);
        attempts = attempt;
        raw_prefix = raw_prefix src ~lo:start ~hi:stop }
      :: !dead
  in
  let rec go pos =
    tick ();
    let pos = skip_ws pos in
    if pos >= n then ()
    else
      match budget.max_docs with
      | Some cap when !ok >= cap ->
          (* the document-count budget: one dead letter for the cut, the
             rest of the input is not scanned *)
          truncated := true;
          let line = line_at pos in
          add_dead ~line ~start:pos ~stop:n
            ~error:
              (Printf.sprintf "line %d: document budget of %d reached; remaining input dropped"
                 line cap)
            ~kind:(Json.Parser.Budget_exceeded Json.Parser.Documents_exceeded)
      | _ -> (
          match step ~options ~telemetry src ~pos with
          | Ok next_pos ->
              incr ok;
              Telemetry.add telemetry docs_ok_c 1;
              go next_pos
          | Error e ->
              (* quarantine the span and resume at the next line boundary.
                 A line that is a valid JSON prefix ([1,) drags the parser
                 into the lines after it; its error is then the one of that
                 line alone, as a shard cut after it would present it, so
                 the healthy lines that follow survive at any job count.
                 The line is re-parsed by the tree parser, never by [step]:
                 its error is the same by [step]'s contract, and a step
                 that folds never sees a document twice. *)
              let err_off = max pos (min e.Json.Parser.position.Json.Lexer.offset n) in
              let e, resume =
                match String.index_from_opt src pos '\n' with
                | Some nl when err_off > nl -> (
                    let own = String.sub src pos (nl + 1 - pos) in
                    match
                      Json.Parser.parse_substring ~options
                        ~telemetry:Telemetry.nop own ~pos:0
                    with
                    | Error own_e -> (own_e, nl + 1)
                    | Ok _ -> (e, next_line err_off))
                | _ -> (e, next_line err_off)
              in
              let line = line_at pos in
              add_dead ~line ~start:pos ~stop:resume
                ~error:(global_error ~start_line:line e)
                ~kind:e.Json.Parser.kind;
              go resume)
  in
  go 0;
  ( List.rev !dead,
    { ok = !ok;
      quarantined = !quarantined;
      budget_killed = !budget_killed;
      budget_causes = sort_causes !causes;
      poisoned = 0;
      truncated = !truncated } )

let ingest_with ?budget ?options ?first_line ?base_offset ?attempt ?tick
    ?telemetry ~parse_doc src =
  let docs = ref [] in
  let dead, report =
    scan ?budget ?options ?first_line ?base_offset ?attempt ?tick ?telemetry
      ~step:(fun ~options ~telemetry src ~pos ->
        match parse_doc ~options ~telemetry src ~pos with
        | Ok (v, stop) ->
            docs := v :: !docs;
            Ok stop
        | Error e -> Error e)
      src
  in
  (List.rev !docs, dead, report)

let ingest ?budget ?options ?first_line ?base_offset ?attempt ?tick ?telemetry
    src =
  let docs, dead, report =
    ingest_with ?budget ?options ?first_line ?base_offset ?attempt ?tick
      ?telemetry
      ~parse_doc:(fun ~options ~telemetry src ~pos ->
        Json.Parser.parse_substring ~options ~telemetry src ~pos)
      src
  in
  { docs; dead; report }

let parse_ndjson_strict ?(budget = unbounded_budget) ?options src =
  let r = ingest ~budget ?options src in
  match r.dead with
  | [] -> Ok r.docs
  | d :: _ -> Error d.error

(* --- fast-path projection with degradation --------------------------- *)

type projected = {
  rows : (string * Json.Value.t) list list;
  proj_dead : dead_letter list;
  proj_report : report;
  mison : Fastjson.Mison.stats;
}

let project ?(budget = default_budget) ?(telemetry = Telemetry.nop) ~fields src =
  let options = parser_options budget in
  let t = Fastjson.Mison.create ~telemetry { Fastjson.Mison.fields } in
  let rows = ref [] and dead = ref [] in
  let ok = ref 0 and quarantined = ref 0 and budget_killed = ref 0 in
  let causes = ref [] in
  let truncated = ref false in
  let n = String.length src in
  let rec go lineno pos =
    if pos < n then begin
      let stop =
        match String.index_from_opt src pos '\n' with Some i -> i | None -> n
      in
      let line_str = String.sub src pos (stop - pos) in
      (if String.trim line_str <> "" then
         match budget.max_docs with
         | Some cap when !ok >= cap -> truncated := true
         | _ -> (
             match Fastjson.Mison.parse_line ~options t line_str with
             | Ok row ->
                 incr ok;
                 Telemetry.add telemetry docs_ok_c 1;
                 rows := row :: !rows
             | Error msg ->
                 (* classify by re-parsing: the fast path reports plain
                    strings, but the report distinguishes budget kills *)
                 let kind =
                   match Json.Parser.parse ~options line_str with
                   | Error e -> e.Json.Parser.kind
                   | Ok _ -> Json.Parser.Syntax
                 in
                 (match kind with
                  | Json.Parser.Budget_exceeded v ->
                      incr budget_killed;
                      causes := add_cause !causes v;
                      Telemetry.count telemetry
                        ("ingest.budget." ^ Json.Parser.violation_name v) 1
                  | Json.Parser.Syntax ->
                      incr quarantined;
                      Telemetry.add telemetry docs_quarantined_c 1);
                 dead :=
                   { line = lineno;
                     byte_offset = pos;
                     error = msg;
                     kind = Parse kind;
                     cause = kind_name (Parse kind);
                     attempts = 1;
                     raw_prefix = raw_prefix src ~lo:pos ~hi:stop }
                   :: !dead));
      go (lineno + 1) (stop + 1)
    end
  in
  go 1 0;
  { rows = List.rev !rows;
    proj_dead = List.rev !dead;
    proj_report =
      { ok = !ok;
        quarantined = !quarantined;
        budget_killed = !budget_killed;
        budget_causes = sort_causes !causes;
        poisoned = 0;
        truncated = !truncated };
    mison = Fastjson.Mison.stats t }

(* --- reports as JSON --------------------------------------------------- *)

let report_to_json r =
  let base =
    [ ("ok", Json.Value.Int r.ok);
      ("quarantined", Json.Value.Int r.quarantined);
      ("budget_killed", Json.Value.Int r.budget_killed) ]
  in
  (* the cause breakdown is keyed by flag-style name and omitted when there
     were no budget kills, so the common report shape is unchanged; the
     [poisoned] shard counter likewise only appears under a supervisor *)
  let by_cause =
    match r.budget_causes with
    | [] -> []
    | causes ->
        [ ( "budget_by_cause",
            Json.Value.Object
              (List.map
                 (fun (v, n) ->
                   (Json.Parser.violation_name v, Json.Value.Int n))
                 causes) ) ]
  in
  let poisoned =
    if r.poisoned = 0 then [] else [ ("poisoned", Json.Value.Int r.poisoned) ]
  in
  Json.Value.Object
    (base @ by_cause @ poisoned @ [ ("truncated", Json.Value.Bool r.truncated) ])

let dead_letter_to_json d =
  Json.Value.Object
    [ ("line", Json.Value.Int d.line);
      ("byte_offset", Json.Value.Int d.byte_offset);
      ("kind", Json.Value.String (kind_name d.kind));
      ("cause", Json.Value.String d.cause);
      ("attempts", Json.Value.Int d.attempts);
      ("error", Json.Value.String d.error);
      ("raw_prefix", Json.Value.String d.raw_prefix) ]

(* --- round trips for the checkpoint journal ---------------------------- *)

let ( let* ) = Result.bind

let member name = function
  | Json.Value.Object fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "resilient json: missing %S" name))
  | _ -> Error "resilient json: expected an object"

let int_field name v =
  let* f = member name v in
  match f with
  | Json.Value.Int n -> Ok n
  | _ -> Error (Printf.sprintf "resilient json: %S must be an integer" name)

let string_field name v =
  let* f = member name v in
  match f with
  | Json.Value.String s -> Ok s
  | _ -> Error (Printf.sprintf "resilient json: %S must be a string" name)

let bool_field name v =
  let* f = member name v in
  match f with
  | Json.Value.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "resilient json: %S must be a boolean" name)

let report_of_json v =
  let* ok = int_field "ok" v in
  let* quarantined = int_field "quarantined" v in
  let* budget_killed = int_field "budget_killed" v in
  let* truncated = bool_field "truncated" v in
  let poisoned =
    match int_field "poisoned" v with Ok n -> n | Error _ -> 0
  in
  let* budget_causes =
    match v with
    | Json.Value.Object fields -> (
        match List.assoc_opt "budget_by_cause" fields with
        | None -> Ok []
        | Some (Json.Value.Object causes) ->
            List.fold_left
              (fun acc (name, n) ->
                let* acc = acc in
                match (violation_of_name name, n) with
                | Some viol, Json.Value.Int n -> Ok ((viol, n) :: acc)
                | _ -> Error ("resilient json: bad budget cause " ^ name))
              (Ok []) causes
            |> Result.map List.rev
        | Some _ -> Error "resilient json: budget_by_cause must be an object")
    | _ -> Error "resilient json: expected an object"
  in
  Ok
    { ok; quarantined; budget_killed; budget_causes = sort_causes budget_causes;
      poisoned; truncated }

let dead_letter_of_json v =
  let* line = int_field "line" v in
  let* byte_offset = int_field "byte_offset" v in
  let* kind_str = string_field "kind" v in
  let* cause = string_field "cause" v in
  let* attempts = int_field "attempts" v in
  let* error = string_field "error" v in
  let* raw_prefix = string_field "raw_prefix" v in
  match kind_of_name kind_str with
  | None -> Error ("resilient json: unknown dead-letter kind " ^ kind_str)
  | Some kind -> Ok { line; byte_offset; error; kind; cause; attempts; raw_prefix }

let ingest_to_json r =
  Json.Value.Object
    [ ("docs", Json.Value.Array r.docs);
      ("dead", Json.Value.Array (List.map dead_letter_to_json r.dead));
      ("report", report_to_json r.report) ]

let ingest_of_json v =
  let* docs = member "docs" v in
  let* dead = member "dead" v in
  let* report = member "report" v in
  match (docs, dead) with
  | Json.Value.Array docs, Json.Value.Array dead ->
      let* dead =
        List.fold_left
          (fun acc d ->
            let* acc = acc in
            let* d = dead_letter_of_json d in
            Ok (d :: acc))
          (Ok []) dead
        |> Result.map List.rev
      in
      let* report = report_of_json report in
      Ok { docs; dead; report }
  | _ -> Error "resilient json: docs and dead must be arrays"
