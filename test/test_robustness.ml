(* Failure-injection / fuzz tests: every component must fail *cleanly*
   (Error results, never exceptions or hangs) on corrupted input.

   The whole suite is deterministic under plain [dune runtest]: properties
   run from a fixed seed (echoed below, overridable with QCHECK_SEED), and
   FUZZ_COUNT=<n> rescales every property's case count for longer runs. *)

let fuzz_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 20250806

let count base =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> base

let gen_value : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return Json.Value.Null;
        map (fun b -> Json.Value.Bool b) bool;
        map (fun n -> Json.Value.Int n) (int_range (-1000) 1000);
        map (fun f -> Json.Value.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Json.Value.String s) (string_size ~gen:printable (int_range 0 10));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 5) in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun vs -> Json.Value.Array vs) (list_size (int_range 0 4) (self (n / 2))));
            (1,
             map
               (fun fields ->
                 let seen = Hashtbl.create 4 in
                 Json.Value.Object
                   (List.filter
                      (fun (k, _) ->
                        if Hashtbl.mem seen k then false
                        else (Hashtbl.add seen k (); true))
                      fields))
               (list_size (int_range 0 4) (pair key (self (n / 2)))));
          ])

(* corrupt a valid JSON text: mutate / delete / insert random bytes *)
let gen_corruption_of (gen_src : string QCheck2.Gen.t) : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* src = gen_src in
  let* n_edits = int_range 1 4 in
  let* edits =
    list_size (return n_edits)
      (triple (int_range 0 (max 0 (String.length src - 1))) (int_range 0 2)
         (map Char.chr (int_range 0 255)))
  in
  return
    (List.fold_left
       (fun s (pos, kind, c) ->
         if String.length s = 0 then s
         else
           let pos = pos mod String.length s in
           match kind with
           | 0 -> (* mutate *)
               String.mapi (fun i ch -> if i = pos then c else ch) s
           | 1 -> (* delete *)
               String.sub s 0 pos ^ String.sub s (pos + 1) (String.length s - pos - 1)
           | _ -> (* insert *)
               String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (String.length s - pos))
       src edits)

let gen_corrupted : string QCheck2.Gen.t =
  gen_corruption_of (QCheck2.Gen.map Json.Printer.to_string gen_value)

let prop_parser_total =
  QCheck2.Test.make ~name:"parser never raises on corrupted input" ~count:(count 1000)
    gen_corrupted (fun src ->
      match Json.Parser.parse src with Ok _ | Error _ -> true)

let prop_stream_total =
  QCheck2.Test.make ~name:"stream reader never raises" ~count:(count 1000) gen_corrupted
    (fun src ->
      match Json.Parser.fold_documents src ~init:0 ~f:(fun n _ -> n + 1) with
      | Ok _ | Error _ -> true)

let prop_parse_many_total =
  QCheck2.Test.make ~name:"parse_many never raises" ~count:(count 500) gen_corrupted
    (fun src -> match Json.Parser.parse_many src with Ok _ | Error _ -> true)

let prop_index_never_raises =
  QCheck2.Test.make ~name:"structural index never raises" ~count:(count 500) gen_corrupted
    (fun src ->
      let idx = Fastjson.Structural_index.build src in
      ignore (Fastjson.Structural_index.colons idx ~level:1 ~lo:0 ~hi:(String.length src));
      true)

let prop_mison_total =
  QCheck2.Test.make ~name:"mison projection never raises" ~count:(count 500) gen_corrupted
    (fun src ->
      let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "a"; "id" ] } in
      match Fastjson.Mison.parse_string t src with Ok _ | Error _ -> true)

let prop_fadjs_total =
  QCheck2.Test.make ~name:"fadjs decode never raises" ~count:(count 500) gen_corrupted
    (fun src ->
      let d = Fastjson.Fadjs.create () in
      match Fastjson.Fadjs.decode d src with
      | Ok doc ->
          ignore (Fastjson.Fadjs.get doc "a");
          ignore (Fastjson.Fadjs.materialize doc);
          true
      | Error _ -> true)

let prop_schema_parse_total =
  QCheck2.Test.make ~name:"schema parser never raises on arbitrary JSON" ~count:(count 500)
    gen_value (fun v ->
      match Jsonschema.Parse.of_json v with Ok _ | Error _ -> true)

let prop_jsound_parse_total =
  QCheck2.Test.make ~name:"jsound parser never raises on arbitrary JSON" ~count:(count 500)
    gen_value (fun v -> match Jsound.parse v with Ok _ | Error _ -> true)

let prop_pointer_total =
  QCheck2.Test.make ~name:"pointer parse/get never raises" ~count:(count 500)
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 0 15)) gen_value)
    (fun (s, v) ->
      match Json.Pointer.parse s with
      | Ok p ->
          ignore (Json.Pointer.get p v);
          true
      | Error _ -> true)

let prop_query_parse_total =
  QCheck2.Test.make ~name:"query parser never raises" ~count:(count 500)
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 40))
    (fun src -> match Query.Parse.pipeline src with Ok _ | Error _ -> true)

let prop_avro_decode_total =
  QCheck2.Test.make ~name:"avro decode never raises on garbage" ~count:(count 500)
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))
    (fun bytes ->
      let schema =
        Translate.Avro.of_jtype ~name:"r"
          (Jtype.Types.rec_
             [ Jtype.Types.field "a" Jtype.Types.int;
               Jtype.Types.field ~optional:true "b"
                 (Jtype.Types.arr Jtype.Types.str) ])
      in
      match Translate.Avro.decode schema bytes with Ok _ | Error _ -> true)

let prop_columnar_decode_total =
  QCheck2.Test.make ~name:"columnar decode never raises on garbage" ~count:(count 500)
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))
    (fun bytes ->
      let schema = Inference.Spark.infer [ Json.Parser.parse_exn {|{"a": 1, "xs": ["s"]}|} ] in
      match Translate.Columnar.decode ~schema bytes with Ok _ | Error _ -> true)

(* round-trip under valid inputs is exercised elsewhere; here make sure the
   validator is total on (schema, instance) pairs drawn independently *)
let prop_validate_total =
  QCheck2.Test.make ~name:"validator total on arbitrary schema/instance pairs"
    ~count:(count 500)
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (schema, instance) ->
      match Jsonschema.Validate.validate ~root:schema instance with
      | Ok () | Error _ -> true)

(* --- schema-vocabulary fuzz ------------------------------------------- *)

(* Schema-shaped JSON (rather than arbitrary values): real keywords with
   plausible and malformed operands, plus [$ref]s pointing at targets that
   may or may not exist. Exercises [Invalid_ref] containment and keyword
   operand validation in the same sweep. *)
let gen_schema : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Json.Value in
  let type_name =
    oneofl [ "null"; "boolean"; "integer"; "number"; "string"; "array"; "object"; "bogus" ]
  in
  let ref_target =
    oneofl
      [ "#"; "#/definitions/a"; "#/definitions/missing"; "#/properties/a";
        "#/nope/3"; "not-a-pointer"; "#/definitions/a/~2"; "#/" ]
  in
  let key = string_size ~gen:(char_range 'a' 'c') (int_range 1 2) in
  sized @@ fix (fun self n ->
      let sub = self (n / 2) in
      let leaf =
        oneof
          [ map (fun t -> Object [ ("type", String t) ]) type_name;
            map (fun r -> Object [ ("$ref", String r) ]) ref_target;
            map (fun k -> Object [ ("required", Array [ String k ]) ]) key;
            map (fun i -> Object [ ("minimum", Int i) ]) (int_range (-5) 5);
            map (fun i -> Object [ ("minLength", Int i) ]) (int_range (-2) 5);
            map
              (fun vs -> Object [ ("enum", Array vs) ])
              (list_size (int_range 0 3) (map (fun i -> Int i) (int_range 0 9)));
            (* malformed operands: keywords whose value has the wrong shape *)
            return (Object [ ("properties", Array [ Int 1 ]) ]);
            return (Object [ ("items", String "not a schema") ]);
            return (Object [ ("required", Int 3) ]);
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [ (3, leaf);
            (1,
             map2
               (fun k s ->
                 Object [ ("properties", Object [ (k, s) ]); ("required", Array [ String k ]) ])
               key sub);
            (1, map (fun s -> Object [ ("items", s) ]) sub);
            (1, map (fun ss -> Object [ ("anyOf", Array ss) ]) (list_size (int_range 1 3) sub));
            (1, map (fun ss -> Object [ ("allOf", Array ss) ]) (list_size (int_range 1 3) sub));
            (1,
             map2
               (fun k s ->
                 Object
                   [ ("definitions", Object [ (k, s) ]);
                     ("$ref", String ("#/definitions/" ^ k)) ])
               key sub);
          ])

let prop_validate_schema_vocab =
  QCheck2.Test.make
    ~name:"validator total on schema-vocabulary roots (incl. bogus $refs)"
    ~count:(count 500)
    QCheck2.Gen.(pair gen_schema gen_value)
    (fun (schema, instance) ->
      match Jsonschema.Validate.validate ~root:schema instance with
      | Ok () | Error _ -> true)

let prop_corrupted_schema_total =
  (* corrupt the *text* of a schema document; whatever still parses as JSON
     must flow through schema parsing and validation without an exception *)
  QCheck2.Test.make ~name:"corrupted schema text never raises" ~count:(count 500)
    QCheck2.Gen.(pair (gen_corruption_of (map Json.Printer.to_string gen_schema)) gen_value)
    (fun (text, instance) ->
      match Json.Parser.parse text with
      | Error _ -> true
      | Ok root -> (
          (match Jsonschema.Parse.of_json root with Ok _ | Error _ -> ());
          match Jsonschema.Validate.validate ~root instance with
          | Ok () | Error _ -> true))

(* --- resilient ingestion fuzz ------------------------------------------ *)

let gen_corrupted_ndjson : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  map (String.concat "\n") (list_size (int_range 0 6) gen_corrupted)

let prop_resilient_ingest_total =
  QCheck2.Test.make ~name:"resilient ingest total + accounting consistent"
    ~count:(count 500) gen_corrupted_ndjson
    (fun text ->
      let r = Core.Resilient.ingest text in
      List.length r.Core.Resilient.docs = r.Core.Resilient.report.Core.Resilient.ok
      && List.length r.Core.Resilient.dead
         = r.Core.Resilient.report.Core.Resilient.quarantined
           + r.Core.Resilient.report.Core.Resilient.budget_killed)

let prop_resilient_project_total =
  QCheck2.Test.make ~name:"resilient mison projection total" ~count:(count 500)
    gen_corrupted_ndjson
    (fun text ->
      let p = Core.Resilient.project ~fields:[ "a"; "id" ] text in
      List.length p.Core.Resilient.rows
      = p.Core.Resilient.proj_report.Core.Resilient.ok)

let prop_mison_parse_line_total =
  QCheck2.Test.make ~name:"mison parse_line (degradation path) never raises"
    ~count:(count 500) gen_corrupted
    (fun src ->
      let t = Fastjson.Mison.create { Fastjson.Mison.fields = [ "a"; "id" ] } in
      match Fastjson.Mison.parse_line t src with Ok _ | Error _ -> true)

(* --- chaos: injected-fault accounting ---------------------------------- *)

let sample_ndjson n =
  let st = Datagen.rng ~seed:97 in
  Datagen.to_ndjson (Datagen.tweets st n)

let test_chaos_accounting () =
  let n = 200 in
  let text = sample_ndjson n in
  let o = Core.Chaos.corrupt ~seed:42 ~rate:0.3 text in
  Alcotest.(check bool) "some faults injected" true (o.Core.Chaos.injected <> []);
  Alcotest.(check int) "fault kinds sum up"
    (List.length o.Core.Chaos.injected)
    (o.Core.Chaos.corrupting + o.Core.Chaos.oversized + o.Core.Chaos.duplicated);
  (* under the default budget the oversize pad (64 KiB) fits, so exactly the
     corrupting faults quarantine and nothing is budget-killed *)
  let r = Core.Resilient.ingest o.Core.Chaos.text in
  Alcotest.(check int) "quarantined = corrupting faults" o.Core.Chaos.corrupting
    r.Core.Resilient.report.Core.Resilient.quarantined;
  Alcotest.(check int) "no budget kills" 0
    r.Core.Resilient.report.Core.Resilient.budget_killed;
  Alcotest.(check int) "survivors"
    (n - o.Core.Chaos.corrupting + o.Core.Chaos.duplicated)
    r.Core.Resilient.report.Core.Resilient.ok;
  (* a 16 KiB document budget turns every oversized record into a typed
     budget kill without disturbing the quarantine count *)
  let budget =
    { Core.Resilient.default_budget with Core.Resilient.max_doc_bytes = Some 16384 }
  in
  let rb = Core.Resilient.ingest ~budget o.Core.Chaos.text in
  Alcotest.(check int) "budget-killed = oversized faults" o.Core.Chaos.oversized
    rb.Core.Resilient.report.Core.Resilient.budget_killed;
  Alcotest.(check int) "quarantine count unchanged" o.Core.Chaos.corrupting
    rb.Core.Resilient.report.Core.Resilient.quarantined

let test_chaos_deterministic () =
  let text = sample_ndjson 50 in
  let o1 = Core.Chaos.corrupt ~seed:7 ~rate:0.25 text in
  let o2 = Core.Chaos.corrupt ~seed:7 ~rate:0.25 text in
  Alcotest.(check string) "same seed, same corruption" o1.Core.Chaos.text o2.Core.Chaos.text;
  Alcotest.(check int) "same fault count"
    (List.length o1.Core.Chaos.injected) (List.length o2.Core.Chaos.injected)

let test_chaos_mison_projection () =
  (* the fast path projects without validating the whole record, so
     corruption that doesn't touch a projected field degrades to an empty or
     partial row instead of quarantining (the strict ingester above is the
     one that must reject every corrupting fault) — but it still must
     account for every line and never reject a healthy one *)
  let n = 100 in
  let text = sample_ndjson n in
  let o = Core.Chaos.corrupt ~seed:11 ~rate:0.3 text in
  let p = Core.Resilient.project ~fields:[ "id"; "lang" ] o.Core.Chaos.text in
  let r = p.Core.Resilient.proj_report in
  Alcotest.(check int) "every line is a row or a dead letter"
    (n + o.Core.Chaos.duplicated)
    (List.length p.Core.Resilient.rows + List.length p.Core.Resilient.proj_dead);
  Alcotest.(check int) "rows = ok" r.Core.Resilient.ok (List.length p.Core.Resilient.rows);
  Alcotest.(check bool) "healthy lines never quarantined" true
    (r.Core.Resilient.quarantined + r.Core.Resilient.budget_killed
     <= o.Core.Chaos.corrupting)

let test_chaos_attribution () =
  (* every quarantine caused by an injected corrupting fault must be
     traceable back to its injection site: attribute rewrites the letter's
     cause to the site id recorded when the fault was planted *)
  let n = 200 in
  let text = sample_ndjson n in
  let o = Core.Chaos.corrupt ~seed:42 ~rate:0.3 text in
  (* 16 KiB budget: oversize faults become budget kills, so *all* three
     corrupting fault kinds produce dead letters to attribute *)
  let budget =
    { Core.Resilient.default_budget with Core.Resilient.max_doc_bytes = Some 16384 }
  in
  let r = Core.Resilient.ingest ~budget o.Core.Chaos.text in
  let dead = Core.Chaos.attribute o r.Core.Resilient.dead in
  let attributed, unattributed =
    List.partition
      (fun (d : Core.Resilient.dead_letter) ->
        String.length d.Core.Resilient.cause >= 6
        && String.sub d.Core.Resilient.cause 0 6 = "chaos:")
      dead
  in
  (* chaos is the only source of corruption here, so every letter is claimed *)
  Alcotest.(check int) "every dead letter attributed"
    (o.Core.Chaos.corrupting + o.Core.Chaos.oversized)
    (List.length attributed);
  Alcotest.(check int) "no stray letters" 0 (List.length unattributed);
  (* each claimed letter sits exactly where its fault was injected and
     names the right fault kind *)
  List.iter
    (fun (inj : Core.Chaos.injected) ->
      match inj.Core.Chaos.fault with
      | Core.Chaos.Duplicate_line -> ()
      | _ ->
          let letter =
            List.find_opt
              (fun (d : Core.Resilient.dead_letter) ->
                d.Core.Resilient.line = inj.Core.Chaos.out_line)
              attributed
          in
          (match letter with
          | None ->
              Alcotest.failf "fault %s left no dead letter" inj.Core.Chaos.site
          | Some d ->
              Alcotest.(check string) "cause = injection site"
                inj.Core.Chaos.site d.Core.Resilient.cause))
    o.Core.Chaos.injected;
  (* attribution only relabels: coordinates, errors, counts untouched *)
  Alcotest.(check int) "same letter count" (List.length r.Core.Resilient.dead)
    (List.length dead);
  List.iter2
    (fun (a : Core.Resilient.dead_letter) (b : Core.Resilient.dead_letter) ->
      Alcotest.(check int) "line" a.Core.Resilient.line b.Core.Resilient.line;
      Alcotest.(check string) "error" a.Core.Resilient.error b.Core.Resilient.error)
    r.Core.Resilient.dead dead

let test_dead_letter_attempts () =
  (* the supervisor stamps retried shards' letters with the attempt that
     finally produced them; default (unsupervised) is attempt 1 *)
  let o = Core.Chaos.corrupt ~seed:42 ~rate:0.3 (sample_ndjson 50) in
  let r1 = Core.Resilient.ingest o.Core.Chaos.text in
  let r3 = Core.Resilient.ingest ~attempt:3 o.Core.Chaos.text in
  Alcotest.(check bool) "letters exist" true (r1.Core.Resilient.dead <> []);
  List.iter
    (fun (d : Core.Resilient.dead_letter) ->
      Alcotest.(check int) "default attempt" 1 d.Core.Resilient.attempts)
    r1.Core.Resilient.dead;
  List.iter
    (fun (d : Core.Resilient.dead_letter) ->
      Alcotest.(check int) "stamped attempt" 3 d.Core.Resilient.attempts)
    r3.Core.Resilient.dead

let prop_ingest_json_roundtrip =
  (* the checkpoint journal persists ingests in this encoding; resume
     correctness rests on it being an exact inverse *)
  QCheck2.Test.make ~name:"ingest JSON round-trip exact" ~count:(count 500)
    gen_corrupted_ndjson
    (fun text ->
      let r = Core.Resilient.ingest text in
      match Core.Resilient.ingest_of_json (Core.Resilient.ingest_to_json r) with
      | Error _ -> false
      | Ok r2 ->
          Json.Printer.to_string (Core.Resilient.ingest_to_json r2)
          = Json.Printer.to_string (Core.Resilient.ingest_to_json r))

(* --- validator recursion guard ----------------------------------------- *)

let test_deep_instance_guard () =
  (* a recursive schema applied to an instance nested past [max_depth] must
     produce a normal validation error, never [Stack_overflow] *)
  let schema =
    Json.Value.Object
      [ ("items", Json.Value.Object [ ("$ref", Json.Value.String "#") ]) ]
  in
  let deep =
    let v = ref (Json.Value.Int 1) in
    for _ = 1 to 6000 do v := Json.Value.Array [ !v ] done;
    !v
  in
  match Jsonschema.Validate.validate ~root:schema deep with
  | Ok () -> Alcotest.fail "deep instance should exceed the depth bound"
  | Error errs ->
      Alcotest.(check bool) "mentions the depth bound" true
        (List.exists
           (fun e ->
             let m = e.Jsonschema.Validate.message in
             let needle = "maximum validation depth" in
             let rec has i =
               i + String.length needle <= String.length m
               && (String.sub m i (String.length needle) = needle || has (i + 1))
             in
             has 0)
           errs)

let test_deep_schema_guard () =
  (* depth can also come from the schema side (allOf consumes no instance
     input); the same bound applies *)
  let rec deep_schema n =
    if n = 0 then Json.Value.Object [ ("type", Json.Value.String "integer") ]
    else Json.Value.Object [ ("allOf", Json.Value.Array [ deep_schema (n - 1) ]) ]
  in
  match Jsonschema.Validate.validate ~root:(deep_schema 6000) (Json.Value.Int 1) with
  | Ok () | Error _ -> Alcotest.(check pass) "no exception escaped" () ()

let test_invalid_ref_contained () =
  List.iter
    (fun target ->
      let schema = Json.Value.Object [ ("$ref", Json.Value.String target) ] in
      match Jsonschema.Validate.validate ~root:schema (Json.Value.Int 1) with
      | Ok () -> Alcotest.failf "bogus ref %s should not validate" target
      | Error _ -> ())
    [ "#/definitions/missing"; "not-a-pointer"; "#/a/b/c" ]

let () =
  Printf.printf "fuzz seed %d (QCHECK_SEED overrides; FUZZ_COUNT scales case counts)\n%!"
    fuzz_seed;
  let q =
    List.map (fun t ->
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| fuzz_seed |]) t)
  in
  Alcotest.run "robustness"
    [ ("fuzz",
       q [ prop_parser_total; prop_stream_total; prop_parse_many_total;
           prop_index_never_raises; prop_mison_total; prop_fadjs_total;
           prop_schema_parse_total; prop_jsound_parse_total; prop_pointer_total;
           prop_query_parse_total; prop_avro_decode_total;
           prop_columnar_decode_total; prop_validate_total ]);
      ("schema-fuzz", q [ prop_validate_schema_vocab; prop_corrupted_schema_total ]);
      ("resilient-fuzz",
       q [ prop_resilient_ingest_total; prop_resilient_project_total;
           prop_mison_parse_line_total ]);
      ("chaos",
       [ Alcotest.test_case "fault accounting" `Quick test_chaos_accounting;
         Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
         Alcotest.test_case "mison fast path" `Quick test_chaos_mison_projection;
         Alcotest.test_case "fault attribution" `Quick test_chaos_attribution;
         Alcotest.test_case "dead-letter attempts" `Quick test_dead_letter_attempts ]
       @ q [ prop_ingest_json_roundtrip ]);
      ("validator-guards",
       [ Alcotest.test_case "deep instance" `Quick test_deep_instance_guard;
         Alcotest.test_case "deep schema" `Quick test_deep_schema_guard;
         Alcotest.test_case "invalid $ref contained" `Quick test_invalid_ref_contained ]);
    ]
