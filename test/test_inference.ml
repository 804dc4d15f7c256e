(* Tests for the six inference tools: parametric (kind/label/counting),
   Spark-style, mongodb-schema-style, Skinfer, skeletons, relational
   normalization — including the comparative claims the tutorial makes. *)

let parse = Json.Parser.parse_exn
let ty = Alcotest.testable Jtype.Types.pp Jtype.Types.equal

(* --- parametric -------------------------------------------------------- *)

let test_partitioning_invariance () =
  let st = Datagen.rng ~seed:11 in
  let docs = Datagen.tweets st 200 in
  List.iter
    (fun equiv ->
      let reference = Inference.Parametric.infer ~equiv docs in
      List.iter
        (fun p ->
          Alcotest.check ty
            (Printf.sprintf "%s equiv, %d partitions" (Jtype.Merge.equiv_to_string equiv) p)
            reference
            (Inference.Parametric.infer_partitioned ~equiv ~partitions:p docs))
        [ 1; 2; 7; 16; 64; 200; 1000 ])
    [ Jtype.Merge.Kind; Jtype.Merge.Label ]

let test_parametric_soundness_on_corpora () =
  let st = Datagen.rng ~seed:5 in
  let corpora =
    [ ("tweets", Datagen.tweets st 100);
      ("articles", Datagen.articles st 100);
      ("open_data", Datagen.open_data st 100);
      ("heterogeneous", Datagen.heterogeneous st ~heterogeneity:1.0 100) ]
  in
  List.iter
    (fun (name, docs) ->
      List.iter
        (fun equiv ->
          let t = Inference.Parametric.infer ~equiv docs in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s precision (%s)" name (Jtype.Merge.equiv_to_string equiv))
            1.0
            (Inference.Parametric.precision t docs))
        [ Jtype.Merge.Kind; Jtype.Merge.Label ])
    corpora

let test_counting_matches_sizes () =
  let st = Datagen.rng ~seed:7 in
  let docs = Datagen.tweets st 80 in
  let c = Inference.Parametric.infer_counting ~equiv:Jtype.Merge.Kind docs in
  Alcotest.(check int) "root count" 80 (Jtype.Counting.count c);
  match Jtype.Counting.field_probability c [ "user"; "verified" ] with
  | Some p -> Alcotest.(check (float 0.0)) "verified always present" 1.0 p
  | None -> Alcotest.fail "user.verified must occur"

(* --- spark ------------------------------------------------------------- *)

let test_spark_widening () =
  let infer srcs = Inference.Spark.infer (List.map parse srcs) in
  (* long + double -> double *)
  let f = infer [ {|{"x": 1}|}; {|{"x": 2.5}|} ] in
  Alcotest.(check string) "numeric widening" "STRUCT<x: DOUBLE>" (Inference.Spark.to_ddl f.Inference.Spark.typ);
  (* int + string -> string: the documented fallback *)
  let f2 = infer [ {|{"x": 1}|}; {|{"x": "s"}|} ] in
  Alcotest.(check string) "string fallback" "STRUCT<x: STRING>" (Inference.Spark.to_ddl f2.Inference.Spark.typ);
  (* struct + scalar -> string *)
  let f3 = infer [ {|{"x": {"y": 1}}|}; {|{"x": 3}|} ] in
  Alcotest.(check string) "cross-kind fallback" "STRUCT<x: STRING>" (Inference.Spark.to_ddl f3.Inference.Spark.typ)

let test_spark_nullability () =
  let f = Inference.Spark.infer (List.map parse [ {|{"a": 1, "b": 2}|}; {|{"a": null}|} ]) in
  match f.Inference.Spark.typ with
  | Inference.Spark.Struct [ ("a", fa); ("b", fb) ] ->
      Alcotest.(check bool) "a nullable (saw null)" true fa.Inference.Spark.nullable;
      Alcotest.(check bool) "b nullable (absent once)" true fb.Inference.Spark.nullable;
      Alcotest.(check string) "a stays long" "BIGINT" (Inference.Spark.to_ddl fa.Inference.Spark.typ)
  | _ -> Alcotest.fail "expected struct with fields a, b"

let test_spark_less_precise_than_parametric () =
  (* the tutorial's core comparative claim, on heterogeneous data *)
  let st = Datagen.rng ~seed:23 in
  let docs = Datagen.heterogeneous st ~heterogeneity:1.0 300 in
  let spark_t = Inference.Spark.to_jtype (Inference.Spark.infer docs) in
  let param_t = Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs in
  let spark_precision = Inference.Parametric.precision spark_t docs in
  let param_precision = Inference.Parametric.precision param_t docs in
  Alcotest.(check (float 0.0)) "parametric is sound" 1.0 param_precision;
  Alcotest.(check bool)
    (Printf.sprintf "spark loses precision (%.2f < 1.0)" spark_precision)
    true (spark_precision < 1.0)

let test_spark_ddl_printer () =
  let f = Inference.Spark.infer_value (parse {|{"a": [1], "b": {"c": true}}|}) in
  Alcotest.(check string) "ddl"
    "STRUCT<a: ARRAY<BIGINT>, b: STRUCT<c: BOOLEAN>>"
    (Inference.Spark.to_ddl f.Inference.Spark.typ)

let test_spark_ddl_quoting () =
  (* field names that are not plain identifiers must be backtick-quoted,
     Spark SQL style, or the emitted STRUCT<...> is unparseable *)
  let ddl src =
    Inference.Spark.to_ddl (Inference.Spark.infer_value (parse src)).Inference.Spark.typ
  in
  Alcotest.(check string) "colon, angle, comma, space"
    "STRUCT<`a:b`: BIGINT, `c,d`: BIGINT, `e<f>`: BIGINT, `g h`: BIGINT>"
    (ddl {|{"a:b": 1, "c,d": 2, "e<f>": 3, "g h": 4}|});
  Alcotest.(check string) "backtick doubled" "STRUCT<`x``y`: STRING>"
    (ddl {|{"x`y": "v"}|});
  Alcotest.(check string) "leading digit quoted" "STRUCT<`0day`: BOOLEAN>"
    (ddl {|{"0day": true}|});
  Alcotest.(check string) "nested struct keys quoted"
    "STRUCT<outer: STRUCT<`in:ner`: BIGINT>>"
    (ddl {|{"outer": {"in:ner": 1}}|});
  Alcotest.(check string) "plain identifiers untouched"
    "STRUCT<_ok: BIGINT, ok2: BIGINT>"
    (ddl {|{"_ok": 1, "ok2": 2}|})

(* --- mongo ------------------------------------------------------------- *)

let test_mongo_statistics () =
  let docs =
    List.map parse
      [ {|{"a": 1, "b": "x"}|}; {|{"a": "one"}|}; {|{"a": 2, "b": "y"}|}; {|{"a": 3}|} ]
  in
  let a = Inference.Mongo.analyze docs in
  Alcotest.(check int) "total" 4 a.Inference.Mongo.total;
  (match Inference.Mongo.field a "a" with
   | Some f ->
       Alcotest.(check int) "a count" 4 f.Inference.Mongo.count;
       Alcotest.(check (float 1e-9)) "a probability" 1.0 f.Inference.Mongo.probability;
       (match f.Inference.Mongo.types with
        | first :: second :: [] ->
            Alcotest.(check string) "dominant type" "Number" first.Inference.Mongo.type_name;
            Alcotest.(check int) "number count" 3 first.Inference.Mongo.type_count;
            Alcotest.(check string) "minor type" "String" second.Inference.Mongo.type_name
        | ts -> Alcotest.fail (Printf.sprintf "expected 2 types for a, got %d" (List.length ts)))
   | None -> Alcotest.fail "field a missing");
  match Inference.Mongo.field a "b" with
  | Some f ->
      Alcotest.(check (float 1e-9)) "b probability" 0.5 f.Inference.Mongo.probability
  | None -> Alcotest.fail "field b missing"

let test_mongo_duplicates_and_nesting () =
  let docs =
    List.map parse
      [ {|{"tag": "hot", "user": {"name": "a"}}|};
        {|{"tag": "hot", "user": {"name": "b", "age": 3}}|} ]
  in
  let a = Inference.Mongo.analyze docs in
  (match Inference.Mongo.field a "tag" with
   | Some f -> Alcotest.(check bool) "duplicates" true f.Inference.Mongo.has_duplicates
   | None -> Alcotest.fail "tag missing");
  match Inference.Mongo.field a "user" with
  | Some f -> (
      match f.Inference.Mongo.types with
      | [ doc_type ] -> (
          Alcotest.(check string) "doc type" "Document" doc_type.Inference.Mongo.type_name;
          match
            List.find_opt
              (fun (x : Inference.Mongo.field_stats) -> x.Inference.Mongo.name = "age")
              doc_type.Inference.Mongo.fields
          with
          | Some age ->
              Alcotest.(check (float 1e-9)) "nested probability" 0.5
                age.Inference.Mongo.probability
          | None -> Alcotest.fail "nested age missing")
      | _ -> Alcotest.fail "user should have a single Document type")
  | None -> Alcotest.fail "user missing"

let test_mongo_streaming_incremental () =
  let st = Datagen.rng ~seed:9 in
  let docs = Datagen.tweets st 60 in
  let batch = Inference.Mongo.analyze docs in
  let streamed =
    Inference.Mongo.finalize (List.fold_left Inference.Mongo.observe Inference.Mongo.empty docs)
  in
  Alcotest.(check bool) "same result" true
    (Json.Value.equal (Inference.Mongo.to_json batch) (Inference.Mongo.to_json streamed));
  (* no correlation: mongo cannot distinguish co-occurring fields, so its
     output is a flat field list *)
  Alcotest.(check int) "total" 60 batch.Inference.Mongo.total


let test_mongo_to_jtype () =
  let docs =
    List.map parse
      [ {|{"a": 1, "b": "x"}|}; {|{"a": 2}|}; {|{"a": 2.5}|} ]
  in
  let t = Inference.Mongo.to_jtype (Inference.Mongo.analyze docs) in
  Alcotest.check ty "mongo type"
    (Jtype.Types.rec_
       [ Jtype.Types.field "a" Jtype.Types.num;
         Jtype.Types.field ~optional:true "b" Jtype.Types.str ])
    t;
  (* every document inhabits the derived type *)
  List.iter
    (fun d -> Alcotest.(check bool) "member" true (Jtype.Typecheck.member d t))
    docs

(* --- skinfer ------------------------------------------------------------ *)

let test_skinfer_record_merge () =
  let s = Inference.Skinfer.infer (List.map parse [ {|{"a": 1, "b": "x"}|}; {|{"a": 2}|} ]) in
  let root = Jsonschema.Print.to_json s in
  Alcotest.(check bool) "accepts both" true
    (Jsonschema.Validate.is_valid ~root (parse {|{"a": 5, "b": "z"}|})
    && Jsonschema.Validate.is_valid ~root (parse {|{"a": 5}|}));
  (* a stays required, b becomes optional *)
  Alcotest.(check bool) "a required" false
    (Jsonschema.Validate.is_valid ~root (parse {|{"b": "z"}|}))

let test_skinfer_scalar_conflict_widens () =
  let s = Inference.Skinfer.infer (List.map parse [ "1"; {|"s"|} ]) in
  Alcotest.(check bool) "widened to true" true
    (match s with Jsonschema.Schema.Bool_schema true -> true | _ -> false)

let test_skinfer_array_limitation () =
  (* two arrays of objects with different shapes: a recursive merge would
     produce a precise items schema; Skinfer drops the items constraint *)
  let s =
    Inference.Skinfer.infer
      (List.map parse [ {|[{"a": 1}]|}; {|[{"b": "x"}]|} ])
  in
  let root = Jsonschema.Print.to_json s in
  (* anything goes inside the array now *)
  Alcotest.(check bool) "lost element schema" true
    (Jsonschema.Validate.is_valid ~root (parse {|[17, "anything"]|}));
  (* the parametric inference on the same data keeps element structure *)
  let t =
    Inference.Parametric.infer ~equiv:Jtype.Merge.Kind
      (List.map parse [ {|[{"a": 1}]|}; {|[{"b": "x"}]|} ])
  in
  Alcotest.(check bool) "parametric keeps it" false
    (Jtype.Typecheck.member (parse {|[17, "anything"]|}) t)

(* --- skeleton ------------------------------------------------------------ *)

let test_skeleton_grouping () =
  let docs =
    List.map parse
      [ {|{"a": 1, "b": "x"}|}; {|{"a": 2, "b": "y"}|}; {|{"a": 3, "b": "z"}|};
        {|{"a": 4, "b": "w"}|}; {|{"c": true}|} ]
  in
  let sk = Inference.Skeleton.build ~min_support:0.5 docs in
  Alcotest.(check int) "one retained group" 1 (List.length sk.Inference.Skeleton.groups);
  Alcotest.(check int) "dropped" 1 sk.Inference.Skeleton.dropped;
  Alcotest.(check bool) "covers frequent" true
    (Inference.Skeleton.covers sk (parse {|{"a": 9, "b": "q"}|}));
  Alcotest.(check bool) "misses rare" false
    (Inference.Skeleton.covers sk (parse {|{"c": false}|}))

let test_skeleton_misses_paths () =
  (* the tutorial: "the skeleton may totally miss information about paths" *)
  let st = Datagen.rng ~seed:31 in
  let docs = Datagen.skewed_structures st ~shapes:12 ~zipf:1.5 500 in
  let sk = Inference.Skeleton.build ~min_support:0.05 ~max_groups:4 docs in
  let coverage = Inference.Skeleton.path_coverage sk docs in
  Alcotest.(check bool)
    (Printf.sprintf "path coverage %.2f strictly between 0 and 1" coverage)
    true
    (coverage > 0.0 && coverage < 1.0);
  (* skeleton is much smaller than the union of all structures *)
  let sk_full = Inference.Skeleton.build ~min_support:0.0 ~max_groups:1000 docs in
  Alcotest.(check bool) "skeleton smaller than full" true
    (Inference.Skeleton.size sk < Inference.Skeleton.size sk_full)

let test_structure_abstraction () =
  Alcotest.(check string) "structure"
    "{a: *, b: [{c: *}]}"
    (Inference.Skeleton.structure_to_string
       (Inference.Skeleton.structure_of (parse {|{"a": 1, "b": [{"c": 2}]}|})));
  (* values are erased: different scalars, same structure *)
  Alcotest.(check bool) "value-independent" true
    (Inference.Skeleton.structure_of (parse {|{"a": 1}|})
    = Inference.Skeleton.structure_of (parse {|{"a": "s"}|}))

(* --- relational ------------------------------------------------------------ *)

let test_flatten () =
  let rows = Inference.Relational.flatten (parse {|{"a": 1, "b": {"c": 2}, "xs": [{"v": 10}, {"v": 20}]}|}) in
  Alcotest.(check int) "two rows from unnesting" 2 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "dotted path" true (List.mem_assoc "b.c" row);
      Alcotest.(check bool) "array path" true (List.mem_assoc "xs.v" row))
    rows

let test_fd_mining () =
  let docs =
    List.map parse
      [ {|{"cid": 1, "cname": "acme", "amount": 10}|};
        {|{"cid": 2, "cname": "globex", "amount": 20}|};
        {|{"cid": 1, "cname": "acme", "amount": 30}|} ]
  in
  let rows = List.concat_map Inference.Relational.flatten docs in
  let fds = Inference.Relational.mine_fds rows in
  let has_fd d dep =
    List.exists
      (fun fd ->
        fd.Inference.Relational.determinant = d && fd.Inference.Relational.dependent = dep)
      fds
  in
  Alcotest.(check bool) "cid -> cname" true (has_fd "cid" "cname");
  Alcotest.(check bool) "cname -> cid" true (has_fd "cname" "cid");
  Alcotest.(check bool) "no cid -> amount" false (has_fd "cid" "amount")

let test_normalization_reduces_redundancy () =
  let st = Datagen.rng ~seed:17 in
  let docs = Datagen.orders st 300 in
  let r = Inference.Relational.normalize ~name:"orders" docs in
  Alcotest.(check bool)
    (Printf.sprintf "tables discovered (%d)" (List.length r.Inference.Relational.tables))
    true
    (List.length r.Inference.Relational.tables >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "redundancy reduced (%d -> %d cells)" r.Inference.Relational.cells_before
       r.Inference.Relational.cells_after)
    true
    (r.Inference.Relational.cells_after < r.Inference.Relational.cells_before);
  (* customer attributes end up in a dimension table keyed by customer_id *)
  let dim_keys = List.filter_map (fun t -> t.Inference.Relational.key) r.Inference.Relational.tables in
  let keyed_on prefix =
    List.exists
      (fun k -> String.length k >= String.length prefix && String.sub k 0 (String.length prefix) = prefix)
      dim_keys
  in
  Alcotest.(check bool) "customer dimension exists" true (keyed_on "customer.");
  Alcotest.(check bool) "product dimension exists" true (keyed_on "product.")


(* --- discovery (Couchbase-style clustering) ------------------------------ *)

let test_typed_paths () =
  Alcotest.(check (list string)) "typed paths"
    [ "a:number"; "b.c:string"; "xs[]:number" ]
    (Inference.Discovery.typed_paths (parse {|{"a": 1, "b": {"c": "x"}, "xs": [1, 2]}|}));
  Alcotest.(check (list string)) "empty array marker" [ "xs[]:empty" ]
    (Inference.Discovery.typed_paths (parse {|{"xs": []}|}))

let test_jaccard () =
  Alcotest.(check (float 1e-9)) "identical" 1.0
    (Inference.Discovery.jaccard [ "a"; "b" ] [ "a"; "b" ]);
  Alcotest.(check (float 1e-9)) "disjoint" 0.0
    (Inference.Discovery.jaccard [ "a" ] [ "b" ]);
  Alcotest.(check (float 1e-9)) "half" (1.0 /. 3.0)
    (Inference.Discovery.jaccard [ "a"; "b" ] [ "b"; "c" ]);
  Alcotest.(check (float 1e-9)) "both empty" 1.0 (Inference.Discovery.jaccard [] [])

let test_discovery_separates_entities () =
  (* a mixed bucket: users and products interleaved *)
  let users =
    List.init 40 (fun i ->
        parse (Printf.sprintf {|{"user_id": %d, "name": "u%d", "email": "u%d@x.io"}|} i i i))
  in
  let products =
    List.init 25 (fun i ->
        parse (Printf.sprintf {|{"sku": "p%d", "price": %d.5, "stock": %d}|} i (i mod 9) i))
  in
  let rec interleave a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: a2, y :: b2 -> x :: y :: interleave a2 b2
  in
  let clusters = Inference.Discovery.discover (interleave users products) in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  (match clusters with
   | [ c1; c2 ] ->
       Alcotest.(check int) "largest first" 40 c1.Inference.Discovery.size;
       Alcotest.(check int) "second" 25 c2.Inference.Discovery.size;
       List.iter
         (fun (c : Inference.Discovery.cluster) ->
           List.iter
             (fun m ->
               Alcotest.(check bool) "member fits cluster schema" true
                 (Jtype.Typecheck.member m c.Inference.Discovery.schema))
             c.Inference.Discovery.members)
         [ c1; c2 ]
   | _ -> Alcotest.fail "expected exactly two clusters");
  match Inference.Discovery.classify clusters (parse {|{"sku": "z", "price": 1.0, "stock": 7}|}) with
  | Some 1 -> ()
  | Some i -> Alcotest.fail (Printf.sprintf "classified into cluster %d" i)
  | None -> Alcotest.fail "should classify"

let test_discovery_threshold () =
  let docs =
    List.map parse
      [ {|{"a": 1, "b": 2}|}; {|{"a": 3, "b": 4, "c": 5}|}; {|{"z": "far"}|} ]
  in
  let strict = Inference.Discovery.discover ~threshold:0.9 docs in
  let loose = Inference.Discovery.discover ~threshold:0.3 docs in
  Alcotest.(check int) "strict splits" 3 (List.length strict);
  Alcotest.(check int) "loose merges similar" 2 (List.length loose)

(* --- profiling (decision trees over field values) ------------------------- *)

let test_profile_learns_rule () =
  (* the variant is fully determined by the "kind" field *)
  let docs =
    List.init 60 (fun i ->
        if i mod 2 = 0 then
          parse (Printf.sprintf {|{"kind": "a", "a_payload": %d}|} i)
        else parse (Printf.sprintf {|{"kind": "b", "b_payload": "s%d"}|} i))
  in
  let p = Inference.Profile.profile docs in
  Alcotest.(check (float 1e-9)) "perfect training accuracy" 1.0
    p.Inference.Profile.training_accuracy;
  Alcotest.(check int) "two variants" 2 (List.length p.Inference.Profile.variants);
  (match p.Inference.Profile.tree with
   | Inference.Profile.Split { feature; _ } ->
       Alcotest.(check string) "splits on kind" "kind" feature
   | Inference.Profile.Leaf _ -> Alcotest.fail "expected a split");
  Alcotest.(check string) "predicts a-variant"
    "{a_payload: *, kind: *}"
    (Inference.Profile.predict p (parse {|{"kind": "a", "a_payload": 999}|}));
  let rs = Inference.Profile.rules p in
  Alcotest.(check bool) "has kind rule" true
    (List.exists
       (fun r -> Re.execp (Re.compile (Re.str {|kind = "a"|})) r)
       rs)

let test_profile_no_signal () =
  let docs = List.init 10 (fun i -> parse (Printf.sprintf {|{"x": %d}|} i)) in
  let p = Inference.Profile.profile docs in
  (match p.Inference.Profile.tree with
   | Inference.Profile.Leaf _ -> ()
   | _ -> Alcotest.fail "expected a leaf");
  Alcotest.(check (float 1e-9)) "accuracy" 1.0 (Inference.Profile.accuracy p docs)

let test_profile_generalizes () =
  (* variant depends on lang: "en" docs carry entities, others never do *)
  let mk i =
    let lang = if i mod 3 = 0 then "en" else "fr" in
    if lang = "en" then
      parse (Printf.sprintf {|{"lang": "en", "id": %d, "entities": {"tags": []}}|} i)
    else parse (Printf.sprintf {|{"lang": "fr", "id": %d}|} i)
  in
  let train = List.init 100 mk in
  let test = List.init 40 (fun i -> mk (i + 1000)) in
  let p = Inference.Profile.profile train in
  Alcotest.(check bool)
    (Printf.sprintf "held-out accuracy %.2f" (Inference.Profile.accuracy p test))
    true
    (Inference.Profile.accuracy p test >= 0.95)

let () =
  Alcotest.run "inference"
    [ ("parametric",
       [ Alcotest.test_case "partitioning invariance" `Quick test_partitioning_invariance;
         Alcotest.test_case "soundness on corpora" `Quick test_parametric_soundness_on_corpora;
         Alcotest.test_case "counting" `Quick test_counting_matches_sizes ]);
      ("spark",
       [ Alcotest.test_case "widening" `Quick test_spark_widening;
         Alcotest.test_case "nullability" `Quick test_spark_nullability;
         Alcotest.test_case "imprecision vs parametric" `Quick test_spark_less_precise_than_parametric;
         Alcotest.test_case "ddl printer" `Quick test_spark_ddl_printer;
         Alcotest.test_case "ddl identifier quoting" `Quick test_spark_ddl_quoting ]);
      ("mongo",
       [ Alcotest.test_case "statistics" `Quick test_mongo_statistics;
         Alcotest.test_case "duplicates and nesting" `Quick test_mongo_duplicates_and_nesting;
         Alcotest.test_case "streaming incremental" `Quick test_mongo_streaming_incremental;
         Alcotest.test_case "to jtype" `Quick test_mongo_to_jtype ]);
      ("skinfer",
       [ Alcotest.test_case "record merge" `Quick test_skinfer_record_merge;
         Alcotest.test_case "scalar conflict widens" `Quick test_skinfer_scalar_conflict_widens;
         Alcotest.test_case "array limitation" `Quick test_skinfer_array_limitation ]);
      ("skeleton",
       [ Alcotest.test_case "grouping" `Quick test_skeleton_grouping;
         Alcotest.test_case "misses rare paths" `Quick test_skeleton_misses_paths;
         Alcotest.test_case "structure abstraction" `Quick test_structure_abstraction ]);
      ("discovery",
       [ Alcotest.test_case "typed paths" `Quick test_typed_paths;
         Alcotest.test_case "jaccard" `Quick test_jaccard;
         Alcotest.test_case "separates entities" `Quick test_discovery_separates_entities;
         Alcotest.test_case "threshold" `Quick test_discovery_threshold ]);
      ("profile",
       [ Alcotest.test_case "learns rule" `Quick test_profile_learns_rule;
         Alcotest.test_case "no signal" `Quick test_profile_no_signal;
         Alcotest.test_case "generalizes" `Quick test_profile_generalizes ]);
      ("relational",
       [ Alcotest.test_case "flatten" `Quick test_flatten;
         Alcotest.test_case "fd mining" `Quick test_fd_mining;
         Alcotest.test_case "normalization" `Quick test_normalization_reduces_redundancy ]);
    ]
