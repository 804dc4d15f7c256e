(* Integration tests for the Core umbrella and the end-to-end Pipeline. *)

open Core

let parse = Json.Parser.parse_exn
let value = Alcotest.testable Json.Printer.pp Json.Value.equal

let docs =
  List.map parse
    [ {|{"id": 1, "name": "ann", "tags": ["a"]}|};
      {|{"id": 2, "name": "bob"}|};
      {|{"id": 3, "name": "cho", "tags": []}|} ]

let test_infer_artifacts () =
  let inferred = Pipeline.infer ~name:"User" docs in
  Alcotest.(check string) "type"
    "{id: Int, name: Str, tags?: [Str]}"
    (Jtype.Types.to_string inferred.Pipeline.jtype);
  (* schema artifact validates the corpus *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "schema accepts corpus" true
        (Jsonschema.Validate.is_valid ~root:(Lazy.force inferred.Pipeline.json_schema) d))
    docs;
  (* codegen artifacts mention the fields *)
  let has needle hay = Re.execp (Re.compile (Re.str needle)) hay in
  Alcotest.(check bool) "ts" true (has "tags?: string[]" (Lazy.force inferred.Pipeline.typescript));
  Alcotest.(check bool) "swift" true (has "let tags: [String]?" (Lazy.force inferred.Pipeline.swift));
  (* counting totals *)
  Alcotest.(check int) "counting total" 3 (Jtype.Counting.count inferred.Pipeline.counting)

(* Nothing is rendered until it is read: [check] and [infer -o
   type|counting] print none of the three, [-o jsonschema] one. *)
let test_renders_on_demand () =
  let rendered (i : Pipeline.inferred) =
    List.filter_map
      (fun (name, forced) -> if forced then Some name else None)
      [ ("json_schema", Lazy.is_val i.Pipeline.json_schema);
        ("typescript", Lazy.is_val i.Pipeline.typescript);
        ("swift", Lazy.is_val i.Pipeline.swift) ]
  in
  let inferred = Pipeline.infer docs in
  Alcotest.(check (list string)) "infer renders nothing" [] (rendered inferred);
  ignore (Lazy.force inferred.Pipeline.json_schema);
  Alcotest.(check (list string)) "one render forced" [ "json_schema" ] (rendered inferred);
  let text = String.concat "\n" (List.map Json.Printer.to_string docs) in
  let root = Json.Parser.parse_exn {|{"type": "object"}|} in
  match Pipeline.check_ndjson ~root text with
  | Ok ({ Pipeline.chk_inferred = Some i; chk_verdict = Some _ }, _, _) ->
      Alcotest.(check (list string)) "check renders nothing" [] (rendered i)
  | Ok _ -> Alcotest.fail "check: documents survived"
  | Error m -> Alcotest.fail m

let test_infer_ndjson () =
  let text = String.concat "\n" (List.map Json.Printer.to_string docs) in
  match Pipeline.strict (Pipeline.infer_ndjson text) with
  | Ok (inferred, _, _) ->
      Alcotest.(check string) "same as batch"
        (Jtype.Types.to_string (Pipeline.infer docs).Pipeline.jtype)
        (Jtype.Types.to_string inferred.Pipeline.jtype)
  | Error m -> Alcotest.fail m

let test_validate_collection () =
  let root = Lazy.force (Pipeline.infer docs).Pipeline.json_schema in
  (match Pipeline.validate_collection ~root docs with
   | Ok 3 -> ()
   | Ok n -> Alcotest.fail (Printf.sprintf "expected 3 valid, got %d" n)
   | Error _ -> Alcotest.fail "corpus must validate");
  match Pipeline.validate_collection ~root (docs @ [ parse {|{"id": "four"}|} ]) with
  | Ok _ -> Alcotest.fail "corrupted doc must fail"
  | Error [ (3, _ :: _) ] -> ()
  | Error failures ->
      Alcotest.fail (Printf.sprintf "expected failure at index 3, got %d failures" (List.length failures))

let test_profile_report () =
  let report = Pipeline.profile docs in
  Alcotest.(check (option value)) "documents" (Some (Json.Value.Int 3))
    (Json.Value.member "documents" report);
  Alcotest.(check bool) "has inferred type" true
    (Json.Value.has_member "inferred_type" report);
  Alcotest.(check bool) "has field stats" true
    (Json.Value.has_member "field_statistics" report);
  (* the printed size of the documents, computed without printing them *)
  Alcotest.(check (option value)) "json_bytes"
    (Some
       (Json.Value.Int
          (List.fold_left (fun n d -> n + String.length (Json.Printer.to_string d)) 0 docs)))
    (Json.Value.member "json_bytes" report);
  (* the report itself is valid JSON all the way down (printable) *)
  match Json.Parser.parse (Json.Printer.to_string report) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Json.Parser.string_of_error e)

let test_translate_pipeline () =
  let st = Datagen.rng ~seed:13 in
  let tweets = Datagen.tweets st 100 in
  match Pipeline.translate tweets with
  | Error m -> Alcotest.fail m
  | Ok tr ->
      Alcotest.(check int) "json_bytes = NDJSON length"
        (String.length (Datagen.to_ndjson tweets)) tr.Pipeline.json_bytes;
      Alcotest.(check bool) "avro smaller than json" true
        (String.length tr.Pipeline.avro_bytes < tr.Pipeline.json_bytes);
      Alcotest.(check bool) "columnar smaller than json" true
        (String.length tr.Pipeline.columnar_bytes < tr.Pipeline.json_bytes);
      (* the avro schema is a record *)
      Alcotest.(check (option value)) "avro schema kind"
        (Some (Json.Value.String "record"))
        (Json.Value.member "type" tr.Pipeline.avro_schema)

let test_resilient_pipelines () =
  let text = "{\"a\": 1}\n{oops\n{\"a\": 2}\n" in
  (* inference runs on the survivors, the wreck is quarantined *)
  let inf, r, _ = Result.get_ok (Pipeline.infer_ndjson text) in
  Alcotest.(check int) "ok" 2 r.Resilient.report.Resilient.ok;
  Alcotest.(check int) "quarantined" 1 r.Resilient.report.Resilient.quarantined;
  Alcotest.(check string) "survivors typed" "{a: Int}"
    (Jtype.Types.to_string inf.Pipeline.jtype);
  (* nothing survives -> the empty type and a report saying so, not an
     exception; strict mode turns the wreck into the run's error *)
  let inf0, r0, _ = Result.get_ok (Pipeline.infer_ndjson "{nope\n") in
  Alcotest.(check int) "all dead" 1 r0.Resilient.report.Resilient.quarantined;
  Alcotest.(check int) "no survivors" 0 r0.Resilient.report.Resilient.ok;
  Alcotest.(check string) "empty type" "Bot"
    (Jtype.Types.to_string inf0.Pipeline.jtype);
  (match Pipeline.strict (Pipeline.infer_ndjson "{nope\n") with
   | Error e ->
       Alcotest.(check string) "strict error" "line 1, column 2: expected null" e
   | Ok _ -> Alcotest.fail "strict mode must fail on the dead letter");
  (* guarded validation indexes failures into the survivor list *)
  let root = Json.Parser.parse_exn {|{"type": "object", "required": ["a"]}|} in
  let failures, rv, _ =
    Result.get_ok
      (Pipeline.validate_ndjson ~root "{\"a\": 1}\n{oops\n{\"b\": 2}\n")
  in
  Alcotest.(check int) "validated survivors" 2 rv.Resilient.report.Resilient.ok;
  Alcotest.(check (list int)) "failing survivor indices" [ 1 ] (List.map fst failures);
  (* guarded translation *)
  match Pipeline.translate_ndjson text with
  | Some (Ok tr), rt ->
      Alcotest.(check int) "translate survivors" 2 rt.Resilient.report.Resilient.ok;
      Alcotest.(check bool) "bytes produced" true (String.length tr.Pipeline.avro_bytes > 0)
  | Some (Error m), _ -> Alcotest.fail ("translate: " ^ m)
  | None, _ -> Alcotest.fail "translation had survivors"

let test_umbrella_exposes_everything () =
  (* every component is reachable through Core *)
  ignore (Json.Parser.parse "1");
  ignore (Jsonschema.Parse.of_string "true");
  ignore Joi.string;
  ignore (Jsound.parse_string {|"item"|});
  ignore Jtype.Types.any;
  ignore (Inference.Skeleton.build []);
  ignore (Fastjson.Fadjs.create ());
  ignore (Translate.Avro.zigzag 1);
  ignore (Datagen.rng ~seed:1);
  ignore (Query.Parse.pipeline "top 1");
  Alcotest.(check pass) "all modules linked" () ()

let () =
  Alcotest.run "core"
    [ ("pipeline",
       [ Alcotest.test_case "infer artifacts" `Quick test_infer_artifacts;
         Alcotest.test_case "renders on demand" `Quick test_renders_on_demand;
         Alcotest.test_case "infer ndjson" `Quick test_infer_ndjson;
         Alcotest.test_case "validate collection" `Quick test_validate_collection;
         Alcotest.test_case "profile report" `Quick test_profile_report;
         Alcotest.test_case "translate" `Quick test_translate_pipeline;
         Alcotest.test_case "resilient variants" `Quick test_resilient_pipelines ]);
      ("umbrella", [ Alcotest.test_case "exposure" `Quick test_umbrella_exposes_everything ]);
    ]
