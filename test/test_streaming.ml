(* Differential oracle for the streaming fused engine (ISSUE 9): the
   [`Streaming] executors — token-level inference and plan-driven
   validation — must be byte-identical to the [`Tree] executable spec.
   Same inferred types (all five artifacts), same verdicts and error
   lists, same dead-letter coordinates, same reports, for any jobs count,
   both equivalences, on clean and corrupted input alike. Plus a
   chunk-boundary audit of the tree parser and the streaming typer read
   through refills: multi-byte UTF-8 and surrogate-pair escapes split
   across chunks, down to one-byte chunks. *)

open Core

let fuzz_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 20250806

let count base =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> base

(* --- fingerprints ------------------------------------------------------ *)

let dead_to_string d = Json.Printer.to_string (Resilient.dead_letter_to_json d)
let report_to_string r = Json.Printer.to_string (Resilient.report_to_json r)

(* streaming ingests deliberately carry [docs = []], so the comparable
   surface is the report and the dead letters (coordinates included) *)
let ingest_fingerprint (r : Resilient.ingest) =
  String.concat "\n"
    (report_to_string r.Resilient.report
    :: List.map dead_to_string r.Resilient.dead)

let inferred_fingerprint (i : Pipeline.inferred) =
  String.concat "\n"
    [ Jtype.Types.to_string i.Pipeline.jtype;
      Jtype.Counting.to_string i.Pipeline.counting;
      Json.Printer.to_string (Lazy.force i.Pipeline.json_schema);
      Lazy.force i.Pipeline.typescript;
      Lazy.force i.Pipeline.swift ]

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let failures_fingerprint fs =
  String.concat "\n"
    (List.map
       (fun (i, es) ->
         Printf.sprintf "%d: %s" i
           (String.concat " | "
              (List.map Jsonschema.Validate.string_of_error es)))
       fs)

(* --- corpora ----------------------------------------------------------- *)

let messy_text =
  let st = Datagen.rng ~seed:91 in
  let text = Datagen.to_ndjson (Datagen.tweets st 300) in
  (Chaos.corrupt ~seed:910 ~rate:0.15 text).Chaos.text

let clean_text =
  let st = Datagen.rng ~seed:92 in
  Datagen.to_ndjson (Datagen.open_data st 200)

let orders_text =
  let st = Datagen.rng ~seed:93 in
  Datagen.to_ndjson (Datagen.orders st 200)

let equivs = [ Jtype.Merge.Kind; Jtype.Merge.Label ]
let jobses = [ 1; 4; 8 ]

(* --- inference --------------------------------------------------------- *)

let test_infer_strict_identical () =
  List.iter
    (fun equiv ->
      List.iter
        (fun jobs ->
          let label =
            Printf.sprintf "%s jobs=%d" (Jtype.Merge.equiv_to_string equiv) jobs
          in
          let strict engine =
            Pipeline.strict
              (Pipeline.infer_ndjson ~equiv ~budget:Resilient.unbounded_budget
                 ~engine ~jobs clean_text)
          in
          match (strict `Tree, strict `Streaming) with
          | Ok (t, _, _), Ok (s, _, _) ->
              Alcotest.(check string) label (inferred_fingerprint t)
                (inferred_fingerprint s)
          | _ -> Alcotest.fail (label ^ ": clean corpus must infer"))
        jobses)
    equivs

let test_infer_strict_same_error () =
  List.iter
    (fun jobs ->
      let strict engine =
        Pipeline.strict
          (Pipeline.infer_ndjson ~budget:Resilient.unbounded_budget ~engine
             ~jobs messy_text)
      in
      match (strict `Tree, strict `Streaming) with
      | Error a, Error b ->
          Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) a b
      | _ -> Alcotest.fail "corrupted corpus must error strictly")
    jobses

let resilient_fingerprint (inferred, ingest, _) =
  inferred_fingerprint inferred ^ "\n---\n" ^ ingest_fingerprint ingest

let test_infer_resilient_identical () =
  let budgets =
    [ ("unbounded", None);
      ( "doc-bytes-512",
        Some
          { Resilient.default_budget with
            Resilient.max_doc_bytes = Some 512 } ) ]
  in
  List.iter
    (fun (bname, budget) ->
      List.iter
        (fun equiv ->
          List.iter
            (fun jobs ->
              let run engine =
                ok (Pipeline.infer_ndjson ?budget ~equiv ~engine ~jobs messy_text)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s %s jobs=%d" bname
                   (Jtype.Merge.equiv_to_string equiv) jobs)
                (resilient_fingerprint (run `Tree))
                (resilient_fingerprint (run `Streaming)))
            jobses)
        equivs)
    budgets

let test_infer_streaming_counts_docs () =
  (* the streaming ingest must report the documents it refused to
     materialize *)
  let _, ingest, _ = ok (Pipeline.infer_ndjson ~engine:`Streaming clean_text) in
  Alcotest.(check (list Alcotest.string)) "no docs" []
    (List.map Json.Printer.to_string ingest.Resilient.docs);
  Alcotest.(check int) "ok = corpus size" 200
    ingest.Resilient.report.Resilient.ok

(* --- validation -------------------------------------------------------- *)

(* schema inferred from the orders corpus: every order validates; the
   tweet-derived messy corpus mostly does not, exercising error paths *)
let orders_schema =
  match Pipeline.strict (Pipeline.infer_ndjson orders_text) with
  | Ok (i, _, _) -> Lazy.force i.Pipeline.json_schema
  | Error e -> failwith e

let test_validate_identical () =
  List.iter
    (fun (cname, text) ->
      List.iter
        (fun jobs ->
          let run engine =
            ok (Pipeline.validate_ndjson ~engine ~jobs ~root:orders_schema text)
          in
          let tf, ti, _ = run `Tree and sf, si, _ = run `Streaming in
          let label = Printf.sprintf "%s jobs=%d" cname jobs in
          Alcotest.(check string) (label ^ " failures")
            (failures_fingerprint tf) (failures_fingerprint sf);
          Alcotest.(check string) (label ^ " ingest")
            (ingest_fingerprint ti) (ingest_fingerprint si))
        jobses)
    [ ("orders", orders_text); ("messy", messy_text) ]

let test_validate_strict_identical () =
  let run engine =
    Pipeline.validate_ndjson_strict ~engine ~root:orders_schema orders_text
  in
  (match (run `Tree, run `Streaming) with
  | Ok (nt, ft), Ok (ns, fs) ->
      Alcotest.(check int) "ndocs" nt ns;
      Alcotest.(check string) "failures" (failures_fingerprint ft)
        (failures_fingerprint fs)
  | _ -> Alcotest.fail "orders corpus must parse strictly");
  (* first parse error aborts identically *)
  match
    ( Pipeline.validate_ndjson_strict ~engine:`Tree ~root:orders_schema
        messy_text,
      Pipeline.validate_ndjson_strict ~engine:`Streaming ~root:orders_schema
        messy_text )
  with
  | Error a, Error b -> Alcotest.(check string) "same abort" a b
  | _ -> Alcotest.fail "messy corpus must abort strictly"

(* dead letters record the attempt that produced them; a retried shard's
   letters are otherwise the unsupervised run's *)
let forget_attempts (r : Resilient.ingest) =
  { r with
    Resilient.dead =
      List.map
        (fun (d : Resilient.dead_letter) -> { d with Resilient.attempts = 1 })
        r.Resilient.dead }

(* The supervised shard runs the same per-shard validator as the plain
   path: under transient worker faults and enough retries, its failures
   and ingest equal [validate_ndjson]'s, for both engines and any jobs. *)
let test_validate_supervised_identical () =
  let policy =
    { Supervisor.default_policy with
      Supervisor.max_attempts = 3;
      base_backoff_ms = 0.0;
      max_backoff_ms = 0.0 }
  in
  let inject = Chaos.worker_faults ~seed:5 ~rate:0.5 () in
  let retried = ref 0 in
  List.iter
    (fun (cname, text) ->
      List.iter
        (fun engine ->
          List.iter
            (fun jobs ->
              let label =
                Printf.sprintf "%s %s jobs=%d" cname
                  (match engine with `Tree -> "tree" | `Streaming -> "streaming")
                  jobs
              in
              let pf, pi, _ =
                ok (Pipeline.validate_ndjson ~engine ~jobs ~root:orders_schema text)
              in
              match
                Pipeline.validate_ndjson ~policy ~inject ~engine ~jobs
                  ~root:orders_schema text
              with
              | Error e -> Alcotest.fail (label ^ ": " ^ e)
              | Ok (sf, si, sup) ->
                  retried := !retried + sup.Pipeline.sup_stats.Supervisor.retries;
                  Alcotest.(check int) (label ^ " nothing poisoned") 0
                    sup.Pipeline.sup_stats.Supervisor.poisoned;
                  Alcotest.(check string) (label ^ " failures")
                    (failures_fingerprint pf) (failures_fingerprint sf);
                  Alcotest.(check string) (label ^ " ingest")
                    (ingest_fingerprint pi)
                    (ingest_fingerprint (forget_attempts si)))
            [ 1; 2; 4 ])
        [ `Tree; `Streaming ])
    [ ("orders", orders_text); ("messy", messy_text) ];
  Alcotest.(check bool) "faults were injected and retried" true (!retried > 0)

(* Full conformance corpus: every group's test documents as one NDJSON
   collection, validated with both engines, plan cache on and off. The
   streaming engine must agree with the tree engine on every case —
   including schemas whose access analysis can't prune anything. *)
let test_validate_conformance_corpus () =
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let dir = Conformance_corpus.dir in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  let groups = ref 0 in
  List.iter
    (fun file ->
      match Json.Parser.parse_exn (read_file (Filename.concat dir file)) with
      | Json.Value.Array gs ->
          List.iter
            (fun g ->
              match g with
              | Json.Value.Object fields ->
                  let get k = List.assoc_opt k fields in
                  let schema =
                    match get "schema" with
                    | Some s -> s
                    | None -> failwith (file ^ ": no schema")
                  in
                  let assert_formats =
                    match get "formats" with
                    | Some (Json.Value.Bool b) -> b
                    | _ -> false
                  in
                  let config =
                    { Jsonschema.Validate.default_config with
                      Jsonschema.Validate.assert_formats }
                  in
                  let tests =
                    match get "tests" with
                    | Some (Json.Value.Array ts) -> ts
                    | _ -> []
                  in
                  let data =
                    List.filter_map
                      (fun t ->
                        match t with
                        | Json.Value.Object fs -> List.assoc_opt "data" fs
                        | _ -> None)
                      tests
                  in
                  if data <> [] then begin
                    incr groups;
                    let text = Datagen.to_ndjson data in
                    let run engine =
                      ok (Pipeline.validate_ndjson ~config ~engine ~root:schema text)
                    in
                    let tf, ti, _ = run `Tree and sf, si, _ = run `Streaming in
                    let label = Printf.sprintf "%s :: group %d" file !groups in
                    Alcotest.(check string) (label ^ " failures")
                      (failures_fingerprint tf) (failures_fingerprint sf);
                    Alcotest.(check string) (label ^ " ingest")
                      (ingest_fingerprint ti) (ingest_fingerprint si)
                  end
              | _ -> failwith (file ^ ": group is not an object"))
            gs
      | _ -> failwith (file ^ ": top level is not an array"))
    files;
  Alcotest.(check bool) "non-trivial corpus" true (!groups >= 40)

(* --- chunk boundaries ---------------------------------------------------- *)

let chunked_refill text size =
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length text then None
    else begin
      let n = min size (String.length text - !pos) in
      let s = String.sub text !pos n in
      pos := !pos + n;
      Some s
    end

let skim_ws s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && (s.[!j] = ' ' || s.[!j] = '\t' || s.[!j] = '\n' || s.[!j] = '\r')
  do incr j done;
  !j

(* The documents of [text], read through chunks of [size] bytes by [parse]
   (one document at [pos], and the offset past it). A document is accepted
   only when it ends strictly before the buffered frontier, or at eof: one
   that touches the frontier (a bare number) could go on in the next chunk.
   Any failure before eof may be a document cut by the frontier (an
   unterminated string, a split escape or UTF-8 sequence), so the buffer
   grows and the document is read again; a failure at eof is reported,
   its offset made absolute. Positions are document-relative, as
   [parse_substring] from each document's first byte gives them. *)
let chunked_docs parse text size =
  let refill = chunked_refill text size in
  let data = ref "" in
  let consumed = ref 0 in
  let rebase (e : Json.Parser.error) =
    let p = e.Json.Parser.position in
    { e with
      Json.Parser.position = { p with Json.Lexer.offset = p.Json.Lexer.offset + !consumed } }
  in
  let rec step acc ~eof =
    let s = !data in
    let n = String.length s in
    let pos = skim_ws s 0 in
    if pos >= n then if eof then Ok acc else grow acc
    else
      match parse s ~pos with
      | Ok (doc, stop) when stop < n || eof ->
          consumed := !consumed + stop;
          data := String.sub s stop (n - stop);
          step (doc :: acc) ~eof
      | Ok _ -> grow acc
      | Error e when eof -> Error (rebase e)
      | Error _ -> grow acc
  and grow acc =
    match refill () with
    | None -> step acc ~eof:true
    | Some chunk ->
        if chunk <> "" then data := !data ^ chunk;
        step acc ~eof:false
  in
  step [] ~eof:false

let fold_fingerprint r =
  match r with
  | Ok docs ->
      "ok\n"
      ^ String.concat "\n" (List.rev_map Json.Printer.to_string docs)
  | Error e -> "error " ^ Json.Parser.string_of_error e

let run_chunked text size =
  fold_fingerprint
    (chunked_docs (fun s ~pos -> Json.Parser.parse_substring s ~pos) text size)

let run_whole text =
  fold_fingerprint
    (Json.Parser.fold_documents text ~init:[] ~f:(fun acc v -> v :: acc))

(* multi-byte UTF-8 (2-, 3- and 4-byte sequences) and \uXXXX escapes
   including a surrogate pair; any chunk size may split any of them *)
let unicode_text =
  String.concat "\n"
    [ {|{"café": "élève"}|};
      "{\"k\": \"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"}";
      {|{"pair": "😀 tail", "n": [1.5e2, -0.25]}|};
      "\"\xf0\x9f\x98\x80\xf0\x9f\x98\x81\xf0\x9f\x98\x82\"";
      {|{"esc": "\u00e9 \u20ac \ud83d\ude00 pair"}|};
      {|{"deep": {"𝄞": ["\u0000nul", "two\u2028sep"]}}|} ]

let test_chunked_unicode_boundaries () =
  let whole = run_whole unicode_text in
  Alcotest.(check bool) "fixture parses" true
    (String.length whole >= 2 && String.sub whole 0 2 = "ok");
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "chunk=%d" size)
        whole (run_chunked unicode_text size))
    [ 1; 2; 3; 5; 7; 64; 4096 ]

let test_chunked_error_boundaries () =
  (* a lone high surrogate and a truncated escape: the error (message and
     absolute position) must not depend on where the refill boundary fell *)
  List.iter
    (fun text ->
      let whole = run_whole text in
      List.iter
        (fun size ->
          Alcotest.(check string)
            (Printf.sprintf "chunk=%d" size)
            whole (run_chunked text size))
        [ 1; 2; 3; 8 ])
    [ {|{"ok": 1}
{"bad": "\ud83d oops"}|};
      {|{"ok": 1}
{"bad": "\u00g1"}|};
      "{\"ok\": 1}\n{\"bad\": \"tear \xf0\x9f" ]

(* --- 1-byte-chunk audit for the Lexer.skim fast path -------------------- *)

(* The fused engine's lexer latches escape-free string payloads as raw
   spans on the lexer state instead of materializing them ([Lexer.skim] /
   [last_string_start]). Feed [Streaming.infer_tokens] through
   [chunked_docs], so every retry re-skims a string whose span crossed the
   previous frontier. The per-document report (type and counting) must be
   byte-identical to whole-buffer inference for every chunk size, down to
   1 byte. *)
let infer_report r =
  match r with
  | Ok docs ->
      "ok\n"
      ^ String.concat "\n"
          (List.rev_map
             (fun (t, c) ->
               Json.Printer.to_string (Jtype.Types.to_json t)
               ^ " / "
               ^ Json.Printer.to_string (Jtype.Counting.to_json c))
             docs)
  | Error (e : Json.Parser.error) ->
      Printf.sprintf "error %s at %d" e.Json.Parser.message
        e.Json.Parser.position.Json.Lexer.offset

let infer_whole ~equiv text =
  let scr = Inference.Streaming.scratch () in
  let n = String.length text in
  let rec go acc pos =
    let pos = skim_ws text pos in
    if pos >= n then Ok acc
    else
      match Inference.Streaming.infer_tokens ~scratch:scr ~equiv text ~pos with
      | Ok (doc, stop) -> go (doc :: acc) stop
      | Error e -> Error e
  in
  infer_report (go [] 0)

let infer_chunked ~equiv text size =
  let scr = Inference.Streaming.scratch () in
  infer_report
    (chunked_docs
       (fun s ~pos -> Inference.Streaming.infer_tokens ~scratch:scr ~equiv s ~pos)
       text size)

(* long escape-free spans (the latched fast path), escapes forcing the slow
   path, multi-byte UTF-8 inside spans, and a string-heavy record — every
   1-byte frontier lands inside some span *)
let skim_span_text =
  String.concat "\n"
    [ {|{"long": "|} ^ String.make 120 'a' ^ {|", "n": 1}|};
      {|"|} ^ String.make 64 'z' ^ {|"|};
      {|{"esc": "head\né tail", "raw": "café"}|};
      "{\"k\": \"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80 span\"}";
      {|{"mix": ["|} ^ String.make 40 'b' ^ {|", "c\\d", "", "x"]}|} ]

let test_skim_one_byte_chunks () =
  List.iter
    (fun equiv ->
      let whole = infer_whole ~equiv skim_span_text in
      Alcotest.(check bool) "fixture infers" true
        (String.length whole >= 2 && String.sub whole 0 2 = "ok");
      List.iter
        (fun size ->
          Alcotest.(check string)
            (Printf.sprintf "chunk=%d" size)
            whole
            (infer_chunked ~equiv skim_span_text size))
        [ 1; 2; 3; 5; 64; 4096 ])
    [ Jtype.Merge.Kind; Jtype.Merge.Label ];
  (* a corrupted corpus: truncation retries must not mask real errors *)
  let messy = String.sub messy_text 0 (min 4096 (String.length messy_text)) in
  let whole = infer_whole ~equiv:Jtype.Merge.Kind messy in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "messy chunk=%d" size)
        whole
        (infer_chunked ~equiv:Jtype.Merge.Kind messy size))
    [ 1; 7; 512 ]

(* --- properties -------------------------------------------------------- *)

let gen_value : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return Json.Value.Null;
        map (fun b -> Json.Value.Bool b) bool;
        map (fun n -> Json.Value.Int n) (int_range (-1000) 1000);
        map (fun f -> Json.Value.Float f) (float_range (-1e6) 1e6);
        map
          (fun s -> Json.Value.String s)
          (string_size ~gen:printable (int_range 0 10)) ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 5) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [ (3, scalar);
               ( 1,
                 map
                   (fun vs -> Json.Value.Array vs)
                   (list_size (int_range 0 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun fields ->
                     let seen = Hashtbl.create 4 in
                     Json.Value.Object
                       (List.filter
                          (fun (k, _) ->
                            if Hashtbl.mem seen k then false
                            else (Hashtbl.add seen k (); true))
                          fields))
                   (list_size (int_range 0 4) (pair key (self (n / 2)))) ) ])

(* an NDJSON text where some lines are corrupted by byte edits *)
let gen_ndjson : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* docs = list_size (int_range 0 20) gen_value in
  let lines = List.map Json.Printer.to_string docs in
  let* lines =
    flatten_l
      (List.map
         (fun line ->
           let* corrupt = frequency [ (4, return false); (1, return true) ] in
           if not corrupt || String.length line = 0 then return line
           else
             let* pos = int_range 0 (String.length line - 1) in
             let* c = map Char.chr (int_range 0 255) in
             return (String.mapi (fun i ch -> if i = pos then c else ch) line))
         lines)
  in
  return (String.concat "\n" lines)

(* an NDJSON text whose documents repeat: drawn with repetition from a pool
   of up to four values, so the streaming reduce sees multiplicities above 1
   (and, at jobs > 1, equal types interned on different domains) *)
let gen_repeating_ndjson : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let special =
    oneofl
      Json.Value.
        [ Array [];
          Object [];
          Array [ Int 1; Float 2.5 ];
          Object [ ("a", Array []); ("b", Array [ Int 1; String "x" ]) ] ]
  in
  let* pool = list_size (int_range 1 4) (frequency [ (1, special); (2, gen_value) ]) in
  let* docs = list_size (int_range 1 40) (oneofl pool) in
  return (String.concat "\n" (List.map Json.Printer.to_string docs))

(* Both engines fold counting types and read the type off by erasure, and
   so does [Parametric.infer], so tree = streaming alone cannot catch a
   fault the three share. The paper's pairwise folds over the surviving
   documents are the independent references: the plain one for the type,
   the counting one for the counts. *)
let matches_reference ~equiv (i : Pipeline.inferred) docs =
  let printed = Jtype.Types.to_string i.Pipeline.jtype in
  String.equal printed
    (Jtype.Types.to_string (Inference.Parametric.infer ~equiv docs))
  && String.equal printed (Pairwise.Seed.to_string (Pairwise.Seed.infer ~equiv docs))
  && i.Pipeline.counting = Pairwise.infer ~equiv docs

(* the three modes of the inference run the streaming reduce serves
   (strict, quarantining, retrying), streaming against tree at jobs 1, 2
   and 4, and the tree run against the reference over the sequential
   scan's survivors *)
let reduce_agrees ~equiv text =
  let strict_docs =
    match Resilient.parse_ndjson_strict text with Ok docs -> docs | Error _ -> []
  in
  let survivors = (Resilient.ingest text).Resilient.docs in
  let retrying =
    { Supervisor.default_policy with
      Supervisor.base_backoff_ms = 0.0;
      max_backoff_ms = 0.0 }
  in
  List.for_all
    (fun jobs ->
      (* each run: its fingerprint, its artifacts and the documents that
         survived *)
      let strict engine =
        match
          Pipeline.strict
            (Pipeline.infer_ndjson ~equiv ~budget:Resilient.unbounded_budget
               ~engine ~jobs text)
        with
        | Ok (i, _, _) -> (inferred_fingerprint i, Some i, strict_docs)
        | Error e -> (e, None, [])
      in
      let quarantining ?policy engine =
        let run = ok (Pipeline.infer_ndjson ?policy ~equiv ~engine ~jobs text) in
        let i, _, _ = run in
        (resilient_fingerprint run, Some i, survivors)
      in
      List.for_all
        (fun run ->
          let tree, inferred, docs = run `Tree in
          let stream, _, _ = run `Streaming in
          tree = stream
          && Option.fold ~none:true
               ~some:(fun i -> matches_reference ~equiv i docs)
               inferred)
        [ strict; quarantining ?policy:None; quarantining ~policy:retrying ])
    [ 1; 2; 4 ]

let prop_infer_repeating =
  QCheck2.Test.make ~name:"repeated documents: streaming = tree"
    ~count:(count 60)
    ~print:(fun (text, equiv) -> Jtype.Merge.equiv_to_string equiv ^ "\n" ^ text)
    QCheck2.Gen.(pair gen_repeating_ndjson (oneofl equivs))
    (fun (text, equiv) -> reduce_agrees ~equiv text)

let test_infer_many_counts_per_type () =
  (* one type, forty ways to count it (arrays of 1 to 40 elements), each
     seen three times: more counting values than a group keeps as keys *)
  let text =
    String.concat "\n"
      (List.init 120 (fun i ->
           Printf.sprintf {|{"v":[%s]}|}
             (String.concat "," (List.init (1 + (i mod 40)) string_of_int))))
  in
  List.iter
    (fun equiv ->
      Alcotest.(check bool) (Jtype.Merge.equiv_to_string equiv) true
        (reduce_agrees ~equiv text))
    equivs

let prop_infer_differential =
  QCheck2.Test.make ~name:"streaming infer = tree infer (resilient)"
    ~count:(count 120)
    QCheck2.Gen.(tup3 gen_ndjson (oneofl equivs) (oneofl jobses))
    (fun (text, equiv, jobs) ->
      let run engine = ok (Pipeline.infer_ndjson ~equiv ~engine ~jobs text) in
      let ((inferred, _, _) as tree) = run `Tree in
      resilient_fingerprint tree = resilient_fingerprint (run `Streaming)
      && matches_reference ~equiv inferred
           (Resilient.ingest text).Resilient.docs)

let prop_validate_differential =
  QCheck2.Test.make ~name:"streaming validate = tree validate"
    ~count:(count 120)
    QCheck2.Gen.(tup2 gen_ndjson (oneofl jobses))
    (fun (text, jobs) ->
      let run engine =
        let f, i, _ =
          ok (Pipeline.validate_ndjson ~engine ~jobs ~root:orders_schema text)
        in
        ingest_fingerprint i ^ "\n===\n" ^ failures_fingerprint f
      in
      run `Tree = run `Streaming)

let prop_chunked_fold =
  QCheck2.Test.make ~name:"chunked fold invariant under chunk size"
    ~count:(count 120)
    QCheck2.Gen.(tup2 gen_ndjson (int_range 1 9))
    (fun (text, size) -> run_whole text = run_chunked text size)

let prop_skim_chunked =
  QCheck2.Test.make ~name:"chunked skim inference invariant under chunk size"
    ~count:(count 120)
    QCheck2.Gen.(tup2 gen_ndjson (int_range 1 9))
    (fun (text, size) ->
      infer_whole ~equiv:Jtype.Merge.Kind text
      = infer_chunked ~equiv:Jtype.Merge.Kind text size)

(* --- shape cache ---------------------------------------------------------

   [infer_tokens] types each distinct document shape once per scratch and
   answers repeats from a cache. The cache must be invisible: every
   document's result equals the tree engine's typing of its tree parse,
   whatever shapes the scratch has seen before, under both equivalences
   and all four duplicate-key policies. *)

(* A document with its scalar payloads (and key spellings) left open. *)
type template =
  | T_null
  | T_bool
  | T_int
  | T_float of int (* spelling: 0 like 1.0, 1 like 1e2, 2 like -2.5E-3 *)
  | T_str
  | T_num of string (* a number literal, verbatim *)
  | T_arr of template list
  | T_obj of (int * template) list (* index into [template_keys] *)

let template_keys = [| "a"; "b"; "ab"; "q\"t" |]

(* one key, spelled raw or entirely with \u escapes *)
let spell_key st b k =
  let escape_all = Random.State.bool st in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      if escape_all then Printf.bprintf b "\\u%04x" (Char.code c)
      else if c = '"' then Buffer.add_string b "\\\""
      else Buffer.add_char b c)
    k;
  Buffer.add_char b '"'

let rec render st b t =
  let int bound = Random.State.int st bound in
  if Random.State.bool st then Buffer.add_char b ' ';
  match t with
  | T_null -> Buffer.add_string b "null"
  | T_bool -> Buffer.add_string b (if Random.State.bool st then "true" else "false")
  | T_int -> Printf.bprintf b "%d" (int 2000 - 1000)
  | T_float 0 -> Printf.bprintf b "%d.%d" (int 100) (int 10)
  | T_float 1 -> Printf.bprintf b "%de%d" (1 + int 9) (int 5)
  | T_float _ -> Printf.bprintf b "-%d.%dE-%d" (int 10) (int 100) (int 9)
  | T_str ->
      Buffer.add_string b
        [| {|""|}; {|"x"|}; {|"two\nlines"|}; {|"été"|}; {|"plain text"|} |].(int 5)
  | T_num literal -> Buffer.add_string b literal
  | T_arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          render st b item)
        items;
      Buffer.add_char b ']'
  | T_obj members ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          spell_key st b template_keys.(k);
          Buffer.add_char b ':';
          render st b v)
        members;
      Buffer.add_char b '}'

let render_doc st t =
  let b = Buffer.create 64 in
  render st b t;
  Buffer.contents b

(* shapes every corpus repeats: 1 / 1.0 / 1e2 under one key, a duplicate
   key, empty containers, an array mixing kinds *)
let fixed_templates =
  [ T_obj [ (0, T_int) ];
    T_obj [ (0, T_float 0) ];
    T_obj [ (0, T_float 1) ];
    T_obj [ (0, T_int); (1, T_str); (0, T_float 0) ];
    T_obj [ (3, T_obj [ (3, T_null); (3, T_bool) ]); (2, T_arr []); (1, T_obj []) ];
    T_arr [ T_int; T_str; T_null; T_arr [ T_bool ]; T_obj [ (0, T_float 1) ]; T_float 2 ] ]

let gen_template : template QCheck2.Gen.t =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return T_null; return T_bool; return T_int;
        map (fun s -> T_float s) (int_range 0 2); return T_str ]
  in
  int_range 0 3
  >>= fix (fun self n ->
          if n <= 0 then scalar
          else
            frequency
              [ (2, scalar);
                (1, map (fun l -> T_arr l) (list_size (int_range 0 3) (self (n - 1))));
                ( 2,
                  map
                    (fun l -> T_obj l)
                    (list_size (int_range 0 4)
                       (pair (int_range 0 (Array.length template_keys - 1)) (self (n - 1))))
                ) ])

let dup_policies =
  Json.Parser.[ Keep_first; Keep_last; Reject; Keep_all ]

(* the tree engine's answer for one document (its counting value and that
   value's erasure, which is what [infer_tokens] reports as the type), and
   the same document typed with its array elements fused pairwise *)
let tree_typed ~options ~equiv doc =
  match Json.Parser.parse_substring ~options doc ~pos:0 with
  | Ok (v, stop) ->
      let c = Jtype.Counting.of_value ~equiv v in
      Ok ((Jtype.Counting.erase c, c), Pairwise.of_value ~equiv v, stop)
  | Error e -> Error e

let same_typing ?telemetry ~scratch ~options ~equiv doc =
  match
    ( Inference.Streaming.infer_tokens ?telemetry ~scratch ~options ~equiv doc
        ~pos:0,
      tree_typed ~options ~equiv doc )
  with
  | Ok ((t, c), stop), Ok ((t', c'), pairwise, stop') ->
      Jtype.Types.equal t t' && c = c' && c' = pairwise && stop = stop'
  | Error e, Error e' -> e = e'
  | _ -> false

let prop_shape_cache_exact =
  QCheck2.Test.make ~name:"shape cache = tree typing" ~count:(count 150)
    QCheck2.Gen.(pair (list_size (int_range 0 5) gen_template) int)
    (fun (random_templates, seed) ->
      let pool = Array.of_list (fixed_templates @ random_templates) in
      let st = Random.State.make [| seed |] in
      let docs =
        List.init 40 (fun _ ->
            render_doc st pool.(Random.State.int st (Array.length pool)))
      in
      (* one scratch for every document under every configuration *)
      let scratch = Inference.Streaming.scratch () in
      List.for_all
        (fun doc ->
          List.for_all
            (fun equiv ->
              List.for_all
                (fun dup_keys ->
                  let options = { Json.Parser.default_options with dup_keys } in
                  same_typing ~scratch ~options ~equiv doc)
                dup_policies)
            equivs)
        docs)

let counter sink name =
  Option.value ~default:0
    (List.assoc_opt name (Telemetry.snapshot sink).Telemetry.counters)

(* a cached shape never lets a later document of the same shape past a
   budget it breaks *)
let test_shape_cache_budgets () =
  let small = {|{"a": "x", "b": [1, 2.5]}|} in
  let large = {|{"a": "|} ^ String.make 200 'y' ^ {|", "b": [1, 2.5]}|} in
  List.iter
    (fun (label, options) ->
      let scratch = Inference.Streaming.scratch () in
      let sink = Telemetry.create () in
      let check doc =
        Alcotest.(check bool) label true
          (same_typing ~telemetry:sink ~scratch ~options ~equiv:Jtype.Merge.Kind doc)
      in
      check small;
      check small;
      Alcotest.(check int) (label ^ ": cached") 1 (counter sink "stream.shape.hits");
      check large;
      Alcotest.(check bool) (label ^ ": large fails") true
        (Result.is_error (tree_typed ~options ~equiv:Jtype.Merge.Kind large));
      check small;
      Alcotest.(check int) (label ^ ": still cached") 2 (counter sink "stream.shape.hits"))
    [ ("max_doc_bytes", { Json.Parser.default_options with max_doc_bytes = Some 64 });
      ("max_string_bytes", { Json.Parser.default_options with max_string_bytes = Some 16 }) ]

(* a key read by prediction under one string budget is still refused
   under a smaller one, with the skim's error *)
let test_shape_cache_key_budget () =
  let scratch = Inference.Streaming.scratch () and equiv = Jtype.Merge.Kind in
  let doc = {|{"created_at": 1, "id": {"created_at": 2}}|} in
  List.iter
    (fun max_string_bytes ->
      let options = { Json.Parser.default_options with max_string_bytes } in
      Alcotest.(check bool) doc true (same_typing ~scratch ~options ~equiv doc))
    [ None; None; Some 10; Some 9; None; Some 9 ];
  Alcotest.(check bool) "over the budget" true
    (Result.is_error
       (tree_typed
          ~options:{ Json.Parser.default_options with max_string_bytes = Some 9 }
          ~equiv doc))

(* A corpus of distinct shapes switches the cache off for the rest of the
   scratch's life; later repeats are typed from their shapes, still
   exactly. The per-document counters the cache sits beside keep their
   meaning: one token per skim, one interning reuse per key occurrence
   after its first. *)
let test_shape_cache_switch_off () =
  let options = Json.Parser.default_options and equiv = Jtype.Merge.Label in
  let scratch = Inference.Streaming.scratch () in
  let distinct = List.init 1500 (fun i -> Printf.sprintf {|{"k%d": %d, "v": [%d]}|} i i i) in
  let repeats =
    List.init 300 (fun i ->
        Printf.sprintf {|{"v": [%d], "k%d": "%d"}|} i (i mod 3) i)
  in
  let parse_counters sink =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"parse." k)
      (Telemetry.snapshot sink).Telemetry.counters
  in
  let run docs =
    let sink = Telemetry.create () and tree_sink = Telemetry.create () in
    List.iter
      (fun doc ->
        Alcotest.(check bool) doc true
          (same_typing ~telemetry:sink ~scratch ~options ~equiv doc);
        ignore (Json.Parser.parse_substring ~options ~telemetry:tree_sink doc ~pos:0))
      docs;
    Alcotest.(check (list (pair string int))) "parse.* as the tree parser's"
      (parse_counters tree_sink) (parse_counters sink);
    sink
  in
  let first = run distinct in
  Alcotest.(check int) "distinct: no hits" 0 (counter first "stream.shape.hits");
  Alcotest.(check int) "distinct: all misses" 1500 (counter first "stream.shape.misses");
  Alcotest.(check int) "distinct: tokens" (1500 * 11) (counter first "stream.tokens");
  Alcotest.(check int) "distinct: reuse" 1499 (counter first "stream.scratch.reuse");
  let after = run repeats in
  Alcotest.(check int) "switched off: no hits" 0 (counter after "stream.shape.hits");
  Alcotest.(check int) "switched off: misses" 300 (counter after "stream.shape.misses");
  Alcotest.(check int) "repeats: reuse" 600 (counter after "stream.scratch.reuse");
  (* the same repeats through a fresh scratch: three shapes, cached *)
  let fresh = Inference.Streaming.scratch () in
  let sink = Telemetry.create () in
  List.iter
    (fun doc ->
      Alcotest.(check bool) doc true
        (same_typing ~telemetry:sink ~scratch:fresh ~options ~equiv doc))
    repeats;
  Alcotest.(check int) "fresh: hits" 297 (counter sink "stream.shape.hits");
  Alcotest.(check int) "fresh: misses" 3 (counter sink "stream.shape.misses");
  Alcotest.(check int) "fresh: reuse" (600 - 4) (counter sink "stream.scratch.reuse");
  (* a key order that changes midway, at the root and in a nested object,
     then a key spelled with an escape and a colon after a space *)
  let reordered =
    List.init 30 (fun i ->
        Printf.sprintf {|{"id": %d, "name": "n", "user": {"id": %d, "tags": [1]}}|} i i)
    @ List.init 30 (fun i ->
          Printf.sprintf {|{"user": {"tags": [], "id": %d}, "id": %d, "name": "m"}|} i i)
    @ [ {|{"\u0069d": 1, "name": "e", "user": {"id": 2, "t\u0061gs": []}}|};
        {|{"id" : 3,"name":"s","user":{"id":4,"tags":[2]}}|} ]
  in
  let fresh = Inference.Streaming.scratch () in
  let sink = Telemetry.create () in
  List.iter
    (fun doc ->
      Alcotest.(check bool) doc true
        (same_typing ~telemetry:sink ~scratch:fresh ~options ~equiv doc))
    reordered;
  Alcotest.(check int) "reordered: tokens" 1395 (counter sink "stream.tokens");
  Alcotest.(check int) "reordered: reuse" 306 (counter sink "stream.scratch.reuse")

(* --- verdict cache ----------------------------------------------------------

   [run_stream ~scratch] validates each distinct document shape once when
   the plan reads only kinds, keys and counts. The cache must be invisible:
   same verdicts, error lists, dead letters and telemetry as the tree
   engine, whatever the scratch has seen before. *)

let compile root =
  match Jsonschema.Compile.compile root with
  | Ok plan -> plan
  | Error _ -> Alcotest.fail "schema must compile"

(* One scratch per shard, as the streaming validation run creates it, under
   any parse options (the CLI always uses [Keep_last]). *)
let cached_validate ?budget ?options ?config ?telemetry ~jobs ~root text =
  let failures, ingest, _ =
    ok
      (Pipeline.validate_ndjson ?budget ?options ?config ?telemetry ~jobs ~root
         text)
  in
  (ingest, failures)

(* the interpreter over the tree parser's documents *)
let tree_validate ?budget ?options ?config ?telemetry ~jobs ~root text =
  let failures, ingest, _ =
    ok
      (Pipeline.validate_ndjson ?budget ?options ?config ~compiled:false
         ~engine:`Tree ?telemetry ~jobs ~root text)
  in
  (ingest, failures)

(* the telemetry both engines share: every parse.*, ingest.* and
   validate.kw.* counter, and the validate.max_depth gauge (the interpreter
   adds its own ref-resolution count, the compiler its plan metrics) *)
let shared_telemetry sink =
  let snap = Telemetry.snapshot sink in
  let keep (k, _) =
    List.exists
      (fun prefix -> String.starts_with ~prefix k)
      [ "parse."; "ingest."; "validate.kw." ]
  in
  ( List.filter keep snap.Telemetry.counters,
    List.filter (fun (k, _) -> k = "validate.max_depth") snap.Telemetry.gauges )

let telemetry_fingerprint sink =
  let counters, gauges = shared_telemetry sink in
  String.concat ","
    (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) counters
    @ List.map (fun (k, x) -> Printf.sprintf "%s=%g" k x) gauges)

let same_validation ?budget ?options ~jobs ~root text =
  let sink_c = Telemetry.create () and sink_t = Telemetry.create () in
  let config sink =
    { Jsonschema.Validate.default_config with
      Jsonschema.Validate.telemetry = sink }
  in
  let ci, cf =
    cached_validate ?budget ?options ~config:(config sink_c) ~telemetry:sink_c
      ~jobs ~root text
  and ti, tf =
    tree_validate ?budget ?options ~config:(config sink_t) ~telemetry:sink_t
      ~jobs ~root text
  in
  failures_fingerprint cf = failures_fingerprint tf
  && ingest_fingerprint ci = ingest_fingerprint ti
  && telemetry_fingerprint sink_c = telemetry_fingerprint sink_t

(* number spellings whose kinds differ under [integer]: integral and
   fractional floats, an exponent, an integer literal past the native int
   range (a float), and a negative zero *)
let verdict_templates =
  [ T_obj [ (0, T_num "1.0") ];
    T_obj [ (0, T_num "1.5") ];
    T_obj [ (0, T_num "1e2") ];
    T_obj [ (0, T_num "12345678901234567890") ];
    T_obj [ (0, T_int); (1, T_str); (0, T_float 0) ];
    T_obj [ (3, T_obj [ (3, T_null); (3, T_bool) ]); (2, T_arr []); (1, T_obj []) ];
    T_arr [ T_arr [ T_int; T_arr [] ]; T_arr [ T_num "1.0"; T_str ] ];
    T_obj [ (1, T_arr [ T_obj [ (0, T_num "-0.0") ]; T_arr [ T_arr [ T_num "2.50" ] ] ]) ] ]

(* Random schemas of the shape-decided fragment over the template keys. *)
let gen_fragment_schema : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let module V = Json.Value in
  let key = oneofl (Array.to_list template_keys) in
  let keys = map (List.sort_uniq compare) (list_size (int_range 1 2) key) in
  let strings ks = V.Array (List.map (fun k -> V.String k) ks) in
  let type_names =
    [ "null"; "boolean"; "integer"; "number"; "string"; "array"; "object" ]
  in
  let gen_type =
    map
      (fun ts ->
        match List.sort_uniq compare ts with
        | [ t ] -> V.String t
        | ts -> V.Array (List.map (fun t -> V.String t) ts))
      (list_size (int_range 1 3) (oneofl type_names))
  in
  let leaf =
    oneof
      [ return (V.Bool true); return (V.Bool false);
        map (fun t -> V.Object [ ("type", t) ]) gen_type ]
  in
  int_range 0 3
  >>= fix (fun self n ->
          if n <= 0 then leaf
          else
            let sub = self (n - 1) in
            let subs = list_size (int_range 1 2) sub in
            let keyword =
              oneof
                [ map (fun t -> ("type", t)) gen_type;
                  map (fun t -> ("type", t)) gen_type;
                  map
                    (fun ps -> ("properties", V.Object ps))
                    (list_size (int_range 1 3) (pair key sub));
                  map (fun s -> ("patternProperties", V.Object [ ("^a", s) ])) sub;
                  map (fun s -> ("additionalProperties", s)) sub;
                  map (fun ks -> ("required", strings ks)) keys;
                  map (fun n -> ("minProperties", V.Int n)) (int_range 0 3);
                  map (fun n -> ("maxProperties", V.Int n)) (int_range 0 3);
                  map (fun s -> ("propertyNames", s)) sub;
                  map
                    (fun (k, d) -> ("dependencies", V.Object [ (k, d) ]))
                    (pair key (oneof [ map strings keys; sub ]));
                  map (fun s -> ("items", s)) sub;
                  map (fun ss -> ("items", V.Array ss)) subs;
                  map (fun s -> ("additionalItems", s)) sub;
                  map (fun n -> ("minItems", V.Int n)) (int_range 0 3);
                  map (fun n -> ("maxItems", V.Int n)) (int_range 0 3);
                  map (fun s -> ("contains", s)) sub;
                  map (fun ss -> ("allOf", V.Array ss)) subs;
                  map (fun ss -> ("anyOf", V.Array ss)) subs;
                  map (fun ss -> ("oneOf", V.Array ss)) subs;
                  map (fun s -> ("not", s)) sub;
                  map (fun s -> ("if", s)) sub;
                  map (fun s -> ("then", s)) sub;
                  map (fun s -> ("else", s)) sub ]
            in
            map
              (fun kws ->
                let seen = Hashtbl.create 4 in
                V.Object
                  (List.filter
                     (fun (k, _) ->
                       if Hashtbl.mem seen k then false
                       else (Hashtbl.add seen k (); true))
                     kws))
              (list_size (int_range 1 4) keyword))

(* fixed fragment schemas where the integral-float code decides verdicts *)
let integral_schemas =
  List.map Json.Parser.parse_exn
    [ {|{"properties": {"a": {"type": "integer"}}}|};
      {|{"items": {"items": {"type": ["integer", "string", "array"]}}}|};
      {|{"additionalProperties": {"anyOf": [{"type": "integer"}, {"type": "object", "additionalProperties": {"not": {"type": "integer"}}}]}}|} ]

(* schemas whose plans read payloads: the cache must stay out of their way *)
let payload_schemas =
  List.map Json.Parser.parse_exn
    [ {|{"properties": {"a": {"enum": [1, 1.0, "x"]}}}|};
      {|{"type": "object", "properties": {"a": {"minimum": 1.2}}}|};
      {|{"items": {"type": "integer", "multipleOf": 2}}|};
      {|{"additionalProperties": {"minLength": 1}}|};
      {|{"properties": {"ab": {"const": 1.0}}, "required": ["a"]}|};
      {|{"items": {"uniqueItems": true}}|};
      {|{"properties": {"b": {"$ref": "#/definitions/i"}}, "definitions": {"i": {"type": "integer"}}}|} ]

(* the default budget, or one small enough to break inside the rendered
   documents, also inside the subtrees a plan skips *)
let gen_budget : Resilient.budget QCheck2.Gen.t =
  let open QCheck2.Gen in
  let d = Resilient.default_budget in
  frequency
    [ (2, return d);
      (1, map (fun n -> { d with Resilient.max_nodes = Some n }) (int_range 1 12));
      (1, map (fun n -> { d with Resilient.max_string_bytes = Some n }) (int_range 0 6));
      (1, map (fun n -> { d with Resilient.max_depth = n }) (int_range 0 3));
      (1, map (fun n -> { d with Resilient.max_doc_bytes = Some n }) (int_range 4 40)) ]

let budget_to_string (b : Resilient.budget) =
  let opt = function Some n -> string_of_int n | None -> "-" in
  Printf.sprintf "max_nodes %s, max_string_bytes %s, max_depth %d, max_doc_bytes %s"
    (opt b.Resilient.max_nodes) (opt b.Resilient.max_string_bytes)
    b.Resilient.max_depth (opt b.Resilient.max_doc_bytes)

(* schemas for the verdict-cache properties: mostly the shape-decided
   fragment, sometimes one that reads payloads and so takes the walk *)
let gen_verdict_schema =
  QCheck2.Gen.frequency
    [ (6, gen_fragment_schema); (1, QCheck2.Gen.oneofl integral_schemas);
      (1, QCheck2.Gen.oneofl payload_schemas) ]

let render_docs ~seed random_templates n =
  let pool = Array.of_list (verdict_templates @ random_templates) in
  let st = Random.State.make [| seed |] in
  List.init n (fun _ -> render_doc st pool.(Random.State.int st (Array.length pool)))

let prop_verdict_cache_exact =
  QCheck2.Test.make ~name:"verdict cache = tree validation" ~count:(count 40)
    ~print:(fun (_, seed, schema, budget) ->
      Printf.sprintf "seed %d, schema %s, budget %s" seed
        (Json.Printer.to_string schema) (budget_to_string budget))
    QCheck2.Gen.(
      tup4 (list_size (int_range 0 4) gen_template) int gen_verdict_schema gen_budget)
    (fun (random_templates, seed, root, budget) ->
      let text = String.concat "\n" (render_docs ~seed random_templates 30) in
      List.for_all
        (fun jobs ->
          List.for_all
            (fun dup_keys ->
              let options = { Json.Parser.default_options with dup_keys } in
              same_validation ~budget ~options ~jobs ~root text)
            dup_policies)
        [ 1; 2; 4 ])

let integer_schema =
  Json.Parser.parse_exn
    {|{"type": "object", "properties": {"a": {"type": "integer"}}}|}

let one_doc ~telemetry ~scratch plan doc =
  match Jsonschema.Compile.run_stream ~telemetry ~scratch plan doc ~pos:0 with
  | Ok (verdict, _) -> Ok (Result.is_ok verdict)
  | Error e -> Error e.Json.Parser.message

(* [1.0] and [1.5] have one shape but not one verdict under [integer]: the
   key tells integral floats apart *)
let test_verdict_integral_floats () =
  let plan = compile integer_schema in
  let scratch = Jsonschema.Compile.scratch () in
  let sink = Telemetry.create () in
  let verdict doc = one_doc ~telemetry:sink ~scratch plan doc in
  let valid = Alcotest.(result bool string) in
  Alcotest.check valid "1.0 is an integer" (Ok true) (verdict {|{"a": 1.0}|});
  Alcotest.check valid "1.5 is not" (Ok false) (verdict {|{"a": 1.5}|});
  Alcotest.check valid "20 digits are" (Ok true)
    (verdict {|{"a": 12345678901234567890}|});
  Alcotest.check valid "1.25e1 is not" (Ok false) (verdict {|{"a": 1.25e1}|});
  Alcotest.check valid "2.0 is, from the cache" (Ok true) (verdict {|{"a": 2.0}|});
  Alcotest.check valid "2.5 is not, from the cache" (Ok false)
    (verdict {|{"a": 2.5}|});
  Alcotest.(check int) "hits" 4 (counter sink "stream.shape.hits");
  Alcotest.(check int) "misses" 2 (counter sink "stream.shape.misses")

(* a cached shape never lets a longer document of that shape past a budget
   it breaks *)
let test_verdict_cache_budgets () =
  let small = {|{"a": "x", "b": [1, 2.5]}|} in
  let large = {|{"a": "|} ^ String.make 200 'y' ^ {|", "b": [1, 2.5]}|} in
  let text = String.concat "\n" [ small; small; large; small ] in
  let root =
    Json.Parser.parse_exn
      {|{"properties": {"a": {"type": "string"}, "b": {"items": {"type": "number"}}}}|}
  in
  List.iter
    (fun (label, budget) ->
      let sink = Telemetry.create () in
      let rf, ri, _ =
        ok (Pipeline.validate_ndjson ~budget ~telemetry:sink ~root text)
      and tf, ti, _ =
        ok (Pipeline.validate_ndjson ~budget ~engine:`Tree ~root text)
      in
      Alcotest.(check string) (label ^ ": ingest") (ingest_fingerprint ti)
        (ingest_fingerprint ri);
      Alcotest.(check string) (label ^ ": failures") (failures_fingerprint tf)
        (failures_fingerprint rf);
      Alcotest.(check int) (label ^ ": killed") 1
        ri.Resilient.report.Resilient.budget_killed;
      Alcotest.(check int) (label ^ ": hits") 2 (counter sink "stream.shape.hits"))
    [ ("max_doc_bytes",
       { Resilient.default_budget with Resilient.max_doc_bytes = Some 64 });
      ("max_string_bytes",
       { Resilient.default_budget with Resilient.max_string_bytes = Some 16 }) ]

(* After [Json.Shape.warmup] documents of distinct shapes the cache is
   off: the 1,024th distinct document switches it off, the 1,023rd does
   not. *)
let test_verdict_cache_switch_off () =
  let root = Json.Parser.parse_exn {|{"additionalProperties": {"type": "integer"}}|} in
  let plan = compile root in
  let distinct n = List.init n (fun i -> Printf.sprintf {|{"k%d": %d}|} i i) in
  let hits_after n =
    let scratch = Jsonschema.Compile.scratch () in
    let sink = Telemetry.create () in
    List.iter
      (fun doc -> ignore (one_doc ~telemetry:sink ~scratch plan doc))
      (distinct n @ [ {|{"k0": 7}|} ]);
    (counter sink "stream.shape.hits", counter sink "stream.shape.misses")
  in
  Alcotest.(check (pair int int)) "1,023 distinct: still caching" (1, 1023)
    (hits_after (Json.Shape.warmup - 1));
  Alcotest.(check (pair int int)) "1,024 distinct: switched off" (0, 1025)
    (hits_after Json.Shape.warmup)

(* [run_stream] on each document in turn, with a scratch or without one
   (the walk alone): the verdicts with their stop offsets, the counters
   other than [stream.shape.*], the gauges, and the sink *)
let stream_run ?scratch ~options plan docs =
  let sink = Telemetry.create () in
  let config =
    { Jsonschema.Validate.default_config with Jsonschema.Validate.telemetry = sink }
  in
  let verdicts =
    List.map
      (fun doc ->
        match
          Jsonschema.Compile.run_stream ~config ~options ~telemetry:sink ?scratch
            plan doc ~pos:0
        with
        | Ok (Ok (), stop) -> Printf.sprintf "valid@%d" stop
        | Ok (Error es, stop) ->
            Printf.sprintf "%s@%d"
              (String.concat " | " (List.map Jsonschema.Validate.string_of_error es))
              stop
        | Error e -> Json.Parser.string_of_error e)
      docs
  in
  let snap = Telemetry.snapshot sink in
  let drop_shape =
    List.filter (fun (k, _) -> not (String.starts_with ~prefix:"stream.shape." k))
  in
  (verdicts, drop_shape snap.Telemetry.counters, snap.Telemetry.gauges, sink)

(* A cached run and the walk alone emit the same telemetry: keyword
   counters and the depth gauge replayed on hits, parse.* and the walk's
   token and skip counts from the shape pass. *)
let test_verdict_cache_telemetry () =
  let root =
    Json.Parser.parse_exn
      {|{"type": "object", "properties": {"a": {"type": ["integer", "null"]}, "t": {"items": [{"type": "string"}, true]}}, "required": ["a"], "dependencies": {"t": ["a"]}}|}
  in
  let plan = compile root in
  let docs =
    [ {|{"a": 1, "t": ["x", {"deep": [1, 2]}, 3], "skip": {"y": [true]}}|};
      {|{"a": 2, "t": ["z", {"deep": [3]}, 4], "skip": {"y": [false]}}|};
      {|{"a": null, "t": [[], "w"]}|};
      {|{"t": ["x"], "a": 1.0}|};
      {|{"a": 3, "t": ["x", {"deep": [1, 2, 5]}, 3], "skip": {"y": [null]}}|};
      {|{"t": [[1], "v"], "a": null}|} ]
  in
  let options = Json.Parser.default_options in
  let v0, c0, g0, _ = stream_run ~options plan (docs @ docs) in
  let v1, c1, g1, sink =
    stream_run ~scratch:(Jsonschema.Compile.scratch ()) ~options plan (docs @ docs)
  in
  Alcotest.(check (list string)) "verdicts" v0 v1;
  Alcotest.(check (list (pair string int))) "counters" c0 c1;
  Alcotest.(check (list (pair string (float 0.)))) "gauges" g0 g1;
  Alcotest.(check bool) "bytes were skipped" true
    (List.assoc_opt "stream.skipped_bytes" c1 <> None);
  Alcotest.(check int) "hits" 8 (counter sink "stream.shape.hits");
  Alcotest.(check int) "misses" 4 (counter sink "stream.shape.misses")

(* The same comparison on random schemas and documents, under every
   duplicate-key policy: the shape pass reads, counts and skips exactly
   the tokens the walk reads, counts and skips. *)
let prop_cache_counts_as_walk =
  QCheck2.Test.make ~name:"cache = walk: verdicts and counts" ~count:(count 60)
    ~print:(fun (_, seed, schema) ->
      Printf.sprintf "seed %d, schema %s" seed (Json.Printer.to_string schema))
    QCheck2.Gen.(triple (list_size (int_range 0 4) gen_template) int gen_verdict_schema)
    (fun (random_templates, seed, root) ->
      let plan = compile root in
      let docs = render_docs ~seed random_templates 20 in
      List.for_all
        (fun dup_keys ->
          let options = { Json.Parser.default_options with dup_keys } in
          let v0, c0, g0, _ = stream_run ~options plan (docs @ docs) in
          let v1, c1, g1, _ =
            stream_run ~scratch:(Jsonschema.Compile.scratch ()) ~options plan
              (docs @ docs)
          in
          v0 = v1 && c0 = c1 && g0 = g1)
        dup_policies)

(* --- key order -------------------------------------------------------------

   The shape pass may read a member key by comparing the source bytes with
   a key it expects at that position. Both engines must stay exactly the
   tree engine, whatever order keys come in: corpora drawn from a few key
   orders, with repetition so that the expected keys are learned, then
   perturbed wherever a byte compare could go wrong. *)

type kdoc = K_lit of string | K_arr of kdoc list | K_obj of (string * kdoc) list

let wide_keys = List.init 150 (fun i -> Printf.sprintf "w%d" i)

(* the key orders; [created_at] is the longest key *)
let key_orders =
  [| K_obj
       [ ("id", K_lit "1"); ("name", K_lit {|"x"|});
         ("user", K_obj [ ("id", K_lit "7"); ("name", K_lit {|"yz"|}) ]);
         ("tags", K_arr [ K_lit {|"x"|}; K_lit {|"yz"|} ]) ];
     K_obj
       [ ("id", K_lit "2.5");
         ("user", K_obj [ ("name", K_lit "null"); ("id", K_lit "3") ]);
         ("name", K_lit "true");
         ( "a",
           K_arr
             [ K_obj [ ("a", K_lit "1"); ("ab", K_lit "2") ];
               K_obj [ ("a", K_lit "3"); ("ab", K_lit "[]") ] ] ) ];
     K_arr
       [ K_obj [ ("a", K_lit "1"); ("ab", K_lit "{}") ];
         K_obj [ ("ab", K_lit "false"); ("a", K_lit "-4") ] ];
     K_obj [ ("created_at", K_lit {|"x"|}); ("id", K_lit "5"); ("user", K_obj []) ];
     (* wider than the intern table's first size: it grows mid-document *)
     K_obj (List.map (fun k -> (k, K_lit "0")) wide_keys) |]

let added_keys = [| "id"; "name"; "a"; "ab"; "w3"; "zz" |]

(* keys whose raw spelling is not their contents; the second of each pair
   is the bytes a naive compare of the first would accept *)
let nonplain_keys =
  [| ({|{"a\"b":1}|}, {|{"a"b":1}|});
     ({|{"a\\b":1}|}, {|{"a\b":1}|});
     ({|{"a\nb":1}|}, "{\"a\nb\":1}");
     ({|{"a\u0000b":1}|}, "{\"a\000b\":1}") |]

let rec count_objects = function
  | K_lit _ -> 0
  | K_arr ds -> List.fold_left (fun n d -> n + count_objects d) 0 ds
  | K_obj ms -> List.fold_left (fun n (_, d) -> n + count_objects d) 1 ms

(* apply [f] to the members of the [target]-th object, in pre-order *)
let edit_object target f doc =
  let i = ref (-1) in
  let rec go = function
    | K_lit _ as d -> d
    | K_arr ds -> K_arr (List.map go ds)
    | K_obj ms ->
        incr i;
        let me = !i in
        let ms = List.map (fun (k, d) -> (k, go d)) ms in
        if me = target then f ms else K_obj ms
  in
  go doc

(* drop, add or swap a member, or empty the object *)
let perturb st doc =
  let pick n = Random.State.int st (max 1 n) in
  let edit ms =
    let a = Array.of_list ms in
    let n = Array.length a in
    match Random.State.int st 4 with
    | 0 ->
        let j = pick n in
        K_obj (List.filteri (fun i _ -> i <> j) ms)
    | 1 ->
        let j = pick (n + 1) and k = added_keys.(pick (Array.length added_keys)) in
        K_obj (Array.to_list (Array.sub a 0 j) @ ((k, K_lit "0") :: Array.to_list (Array.sub a j (n - j))))
    | 2 when n >= 2 ->
        let j = pick (n - 1) in
        let m = a.(j) in
        a.(j) <- a.(j + 1);
        a.(j + 1) <- m;
        K_obj (Array.to_list a)
    | _ -> K_obj []
  in
  edit_object (pick (count_objects doc)) edit doc

type glitch =
  | Escaped  (* the key spelled with \u escapes only *)
  | Spaced  (* whitespace between the key and its colon *)
  | Bare  (* the key directly before ',' or '}' *)
  | Cut_key  (* the line ends right after the key *)
  | Cut_colon  (* the line ends right after the colon *)

(* one line; with [glitch = (target, g)], the [target]-th member key in
   document order gets [g] *)
let render_kdoc st ?glitch doc =
  let target, glitch = Option.value glitch ~default:(-1, Escaped) in
  let b = Buffer.create 128 and member = ref (-1) and cut = ref None in
  let ws () = if Random.State.int st 4 = 0 then Buffer.add_char b ' ' in
  let rec go = function
    | K_lit s -> ws (); Buffer.add_string b s
    | K_arr ds ->
        Buffer.add_char b '[';
        List.iteri (fun i d -> if i > 0 then Buffer.add_char b ','; go d) ds;
        Buffer.add_char b ']'
    | K_obj ms ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, d) ->
            if i > 0 then Buffer.add_char b ',';
            ws ();
            incr member;
            let g = if !member = target then Some glitch else None in
            Buffer.add_char b '"';
            if g = Some Escaped then String.iter (fun c -> Printf.bprintf b "\\u%04x" (Char.code c)) k
            else Buffer.add_string b k;
            Buffer.add_char b '"';
            if g = Some Cut_key then cut := Some (Buffer.length b);
            if g <> Some Bare then begin
              if g = Some Spaced then Buffer.add_string b (if Random.State.bool st then " " else "\t ");
              Buffer.add_char b ':';
              if g = Some Cut_colon then cut := Some (Buffer.length b);
              go d
            end)
          ms;
        Buffer.add_char b '}'
  in
  go doc;
  match !cut with Some n -> Buffer.sub b 0 n | None -> Buffer.contents b

let rec count_members = function
  | K_lit _ -> 0
  | K_arr ds -> List.fold_left (fun n d -> n + count_members d) 0 ds
  | K_obj ms -> List.fold_left (fun n (_, d) -> n + 1 + count_members d) 0 ms

(* forty documents in runs of one key order, a third of them perturbed, a
   quarter with one glitched key; now and then a non-plain key at the
   root, followed by the line a naive compare would accept *)
let key_order_corpus seed =
  let st = Random.State.make [| seed |] in
  let order = ref (Random.State.int st (Array.length key_orders)) in
  let lines = ref [] in
  for _ = 1 to 40 do
    if Random.State.int st 6 = 0 then order := Random.State.int st (Array.length key_orders);
    let doc = key_orders.(!order) in
    let doc = if Random.State.int st 3 = 0 then perturb st doc else doc in
    if Random.State.int st 12 = 0 then begin
      let spelled, naive = nonplain_keys.(Random.State.int st (Array.length nonplain_keys)) in
      lines := naive :: spelled :: spelled :: !lines
    end;
    let line =
      if Random.State.int st 4 = 0 && count_members doc > 0 then
        let glitch = [| Escaped; Spaced; Bare; Cut_key; Cut_colon |].(Random.State.int st 5) in
        render_kdoc st ~glitch:(Random.State.int st (count_members doc), glitch) doc
      else render_kdoc st doc
    in
    lines := line :: !lines
  done;
  String.concat "\n" (List.rev !lines)

(* schemas whose shape pass reads keys: every member skipped, members and
   array elements walked by the access tree, every member recorded whole *)
let key_order_schemas =
  List.map Json.Parser.parse_exn
    [ {|{"type": "object"}|};
      {|{"type": "object", "required": ["id"], "properties": {"id": {"type": "integer"}, "user": {"type": "object", "properties": {"name": {"type": "string"}}, "required": ["id"]}, "a": {"items": {"required": ["a"]}}}, "items": {"properties": {"ab": {"type": "integer"}}}}|};
      {|{"patternProperties": {"^a": {"type": "integer"}}, "properties": {"user": {"required": ["name"]}}}|} ]

(* the [Lexer.skim] tokens of the lines the tree parser accepts whole *)
let skim_tokens_of_accepted ~options text =
  List.fold_left
    (fun n line ->
      match Json.Parser.parse ~options line with
      | Error _ -> n
      | Ok _ ->
          let lx = Json.Lexer.create line in
          let rec go n = match Json.Lexer.skim lx with Json.Lexer.S_eof -> n | _ -> go (n + 1) in
          go n)
    0 (String.split_on_char '\n' text)

let prop_key_order_exact =
  QCheck2.Test.make ~name:"key order: streaming = tree" ~count:(count 25)
    ~print:(fun (seed, limit) ->
      Printf.sprintf "seed %d, max_string_bytes %s\n%s" seed
        (match limit with Some n -> string_of_int n | None -> "default")
        (key_order_corpus seed))
    QCheck2.Gen.(pair int (oneofl [ None; Some 10; Some 9 ]))
    (fun (seed, limit) ->
      let text = key_order_corpus seed in
      let budget =
        match limit with
        | None -> Resilient.default_budget
        | Some n -> { Resilient.default_budget with Resilient.max_string_bytes = Some n }
      in
      List.for_all
        (fun dup_keys ->
          let options = { Json.Parser.default_options with dup_keys } in
          let tokens =
            skim_tokens_of_accepted ~options:(Resilient.parser_options ~base:options budget) text
          in
          List.for_all
            (fun jobs ->
              List.for_all
                (fun equiv ->
                  let sink = Telemetry.create () in
                  let run engine telemetry =
                    ok (Pipeline.infer_ndjson ~equiv ~budget ~options ~engine ~jobs ~telemetry text)
                  in
                  let tree = run `Tree Telemetry.nop in
                  resilient_fingerprint tree = resilient_fingerprint (run `Streaming sink)
                  && counter sink "stream.tokens" = tokens)
                equivs
              && List.for_all
                   (fun root -> same_validation ~budget ~options ~jobs ~root text)
                   key_order_schemas)
            [ 1; 2; 4 ])
        dup_policies)

(* The access index keeps the first of two [properties] entries for one
   key, as the plan's property table and the interpreter do. The parser's
   default policy keeps one binding per key, so the schema is built as a
   value. *)
let test_access_index_first_wins () =
  let module V = Json.Value in
  let text = String.concat "\n" [ {|{"a": "x"}|}; {|{"a": 1}|}; {|{"a": "yz"}|} ] in
  List.iter
    (fun (label, first) ->
      let root =
        V.Object [ ("properties", V.Object [ ("a", first); ("a", V.Bool true) ]) ]
      in
      let tf, ti, _ = ok (Pipeline.validate_ndjson ~engine:`Tree ~root text) in
      let sf, si, _ = ok (Pipeline.validate_ndjson ~root text) in
      Alcotest.(check bool) (label ^ ": first entry applies") true (tf <> []);
      Alcotest.(check string) (label ^ " failures") (failures_fingerprint tf)
        (failures_fingerprint sf);
      Alcotest.(check string) (label ^ " ingest") (ingest_fingerprint ti)
        (ingest_fingerprint si))
    [ ("shape-decided", V.Object [ ("type", V.String "string") ]);
      ("payload", V.Object [ ("minLength", V.Int 2) ]) ]

let () =
  let prop p =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| fuzz_seed |]) p
  in
  Alcotest.run "streaming"
    [ ( "inference",
        [ Alcotest.test_case "strict identical" `Quick
            test_infer_strict_identical;
          Alcotest.test_case "strict same error" `Quick
            test_infer_strict_same_error;
          Alcotest.test_case "resilient identical" `Quick
            test_infer_resilient_identical;
          Alcotest.test_case "streaming counts docs" `Quick
            test_infer_streaming_counts_docs;
          Alcotest.test_case "many counts per type" `Quick
            test_infer_many_counts_per_type ] );
      ( "validation",
        [ Alcotest.test_case "corpus identical" `Quick test_validate_identical;
          Alcotest.test_case "strict identical" `Quick
            test_validate_strict_identical;
          Alcotest.test_case "conformance identical" `Quick
            test_validate_conformance_corpus;
          Alcotest.test_case "supervised identical" `Quick
            test_validate_supervised_identical;
          Alcotest.test_case "access index first-wins" `Quick
            test_access_index_first_wins ] );
      ( "verdict-cache",
        [ Alcotest.test_case "integral floats" `Quick
            test_verdict_integral_floats;
          Alcotest.test_case "budgets after a hit" `Quick
            test_verdict_cache_budgets;
          Alcotest.test_case "switch-off" `Quick test_verdict_cache_switch_off;
          Alcotest.test_case "telemetry replay" `Quick
            test_verdict_cache_telemetry;
          prop prop_cache_counts_as_walk;
          prop prop_verdict_cache_exact ] );
      ( "chunk-boundaries",
        [ Alcotest.test_case "unicode split anywhere" `Quick
            test_chunked_unicode_boundaries;
          Alcotest.test_case "errors split anywhere" `Quick
            test_chunked_error_boundaries;
          Alcotest.test_case "skim spans split anywhere" `Quick
            test_skim_one_byte_chunks ] );
      ( "shape-cache",
        [ Alcotest.test_case "budgets after a hit" `Quick
            test_shape_cache_budgets;
          Alcotest.test_case "switch-off" `Quick test_shape_cache_switch_off;
          Alcotest.test_case "string budget on a known key" `Quick
            test_shape_cache_key_budget;
          prop prop_shape_cache_exact;
          prop prop_key_order_exact ] );
      ( "properties",
        [ prop prop_infer_differential;
          prop prop_infer_repeating;
          prop prop_validate_differential;
          prop prop_chunked_fold;
          prop prop_skim_chunked ] ) ]
