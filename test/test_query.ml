(* Tests for the Jaql-style query pipeline: evaluation, parsing, and —
   the point of the exercise — sound static output-schema inference. *)

let parse = Json.Parser.parse_exn
let value = Alcotest.testable Json.Printer.pp Json.Value.equal
let ty = Alcotest.testable Jtype.Types.pp Jtype.Types.equal

let docs srcs = List.map parse srcs

let run q srcs = Query.Eval.run (Query.Parse.pipeline_exn q) (docs srcs)

let check_run name q input expected =
  Alcotest.(check (list value)) name (docs expected) (run q input)

(* --- evaluation -------------------------------------------------------- *)

let people =
  [ {|{"name": "ann", "age": 31, "tags": ["admin", "dev"]}|};
    {|{"name": "bob", "age": 17, "tags": []}|};
    {|{"name": "cho", "age": 46, "tags": ["dev"]}|} ]

let test_filter () =
  check_run "age filter" {|filter $.age > 18|} people
    [ {|{"name": "ann", "age": 31, "tags": ["admin", "dev"]}|};
      {|{"name": "cho", "age": 46, "tags": ["dev"]}|} ];
  check_run "conjunction" {|filter $.age > 18 and $.name != "cho"|} people
    [ {|{"name": "ann", "age": 31, "tags": ["admin", "dev"]}|} ];
  check_run "missing field is null, comparison false" {|filter $.salary > 0|} people []

let test_transform () =
  check_run "projection" {|transform {who: $.name, next: $.age + 1}|} people
    [ {|{"who": "ann", "next": 32}|}; {|{"who": "bob", "next": 18}|};
      {|{"who": "cho", "next": 47}|} ];
  check_run "nested access" {|transform $.tags[0]|} people
    [ {|"admin"|}; "null"; {|"dev"|} ]

let test_expand () =
  check_run "expand field" {|expand tags|} people
    [ {|"admin"|}; {|"dev"|}; {|"dev"|} ];
  check_run "expand root arrays" {|transform $.tags | expand|} people
    [ {|"admin"|}; {|"dev"|}; {|"dev"|} ]

let test_group () =
  let sales =
    [ {|{"region": "eu", "amount": 10}|}; {|{"region": "us", "amount": 20}|};
      {|{"region": "eu", "amount": 5}|} ]
  in
  check_run "group with aggregates"
    {|group by $.region into {n: count, total: sum $.amount, peak: max $.amount}|}
    sales
    [ {|{"key": "eu", "n": 2, "total": 15, "peak": 10}|};
      {|{"key": "us", "n": 1, "total": 20, "peak": 20}|} ];
  check_run "avg is float" {|group by true into {m: avg $.amount}|} sales
    [ {|{"key": true, "m": 11.666666666666666}|} ]

let test_sort_top () =
  check_run "sort desc + top" {|sort by $.age desc | top 2|} people
    [ {|{"name": "cho", "age": 46, "tags": ["dev"]}|};
      {|{"name": "ann", "age": 31, "tags": ["admin", "dev"]}|} ]

let test_null_semantics () =
  check_run "arith on missing -> null" {|transform $.nope + 1|} [ "{}" ] [ "null" ];
  check_run "div by zero -> null" {|transform 1 / 0|} [ "{}" ] [ "null" ];
  check_run "isnull" {|filter isnull $.nope|} [ {|{"a": 1}|} ] [ {|{"a": 1}|} ];
  check_run "field of scalar -> null" {|transform $.a.b|} [ {|{"a": 3}|} ] [ "null" ];
  check_run "int arithmetic stays int" {|transform 2 * 3 + 1|} [ "{}" ] [ "7" ];
  check_run "mixed arithmetic is float" {|transform 2 * 3.5|} [ "{}" ] [ "7.0" ]

(* --- parser ------------------------------------------------------------- *)

let test_parse_roundtrip () =
  let queries =
    [ "filter $.age > 18";
      "transform {who: $.name, next: ($.age + 1)}";
      "expand tags";
      "expand";
      "group by $.region into {n: count, total: sum $.amount}";
      "sort by $.age desc | top 2";
      {|filter ($.a == "x") or not $.b | transform [$.a, $.b, -1]|};
      "transform $.xs[2].y" ]
  in
  List.iter
    (fun q ->
      let p = Query.Parse.pipeline_exn q in
      let printed = Query.Ast.to_string p in
      match Query.Parse.pipeline printed with
      | Ok p2 ->
          Alcotest.(check string) ("print . parse fixpoint: " ^ q) printed
            (Query.Ast.to_string p2)
      | Error m -> Alcotest.fail (printed ^ ": " ^ m))
    queries

let test_parse_errors () =
  List.iter
    (fun q ->
      match Query.Parse.pipeline q with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (q ^ " should not parse"))
    [ ""; "fliter $.a"; "filter"; "group $.a into {n: count}"; "top x";
      "filter $.a >< 1"; "transform {a 1}"; "filter $.a | | top 1";
      "transform $.xs[$.i]" ]

let test_negative_numbers () =
  check_run "negative literal" {|filter $.t > -5|} [ {|{"t": 0}|} ] [ {|{"t": 0}|} ];
  check_run "binary minus" {|transform $.t - 1|} [ {|{"t": 0}|} ] [ "-1" ]

(* --- static typing ------------------------------------------------------- *)

let input_type srcs =
  Jtype.Merge.merge_all ~equiv:Jtype.Merge.Kind
    (List.map (fun s -> Jtype.Types.of_value (parse s)) srcs)

let test_typing_basics () =
  let t = input_type people in
  let out q = Query.Typing.type_pipeline t (Query.Parse.pipeline_exn q) in
  Alcotest.check ty "filter keeps type" t (out "filter $.age > 18");
  Alcotest.check ty "projection type"
    (Jtype.Types.rec_
       [ Jtype.Types.field "next" Jtype.Types.int;
         Jtype.Types.field "who" Jtype.Types.str ])
    (out "transform {who: $.name, next: $.age + 1}");
  Alcotest.check ty "expand element type" Jtype.Types.str (out "expand tags");
  Alcotest.check ty "group type"
    (Jtype.Types.rec_
       [ Jtype.Types.field "key" Jtype.Types.str;
         Jtype.Types.field "n" Jtype.Types.int ])
    (out "group by $.name into {n: count}");
  (* missing field manifests as Null in the type *)
  Alcotest.check ty "missing field"
    (Jtype.Types.union [ Jtype.Types.null ])
    (out "transform $.salary")

let test_typing_optional_fields () =
  let t = input_type [ {|{"a": 1, "b": "x"}|}; {|{"a": 2}|} ] in
  let out q = Query.Typing.type_pipeline t (Query.Parse.pipeline_exn q) in
  (* b is optional: access yields Str + Null *)
  Alcotest.check ty "optional access"
    (Jtype.Types.union [ Jtype.Types.null; Jtype.Types.str ])
    (out "transform $.b");
  (* arithmetic on maybe-null propagates nullability *)
  Alcotest.check ty "arith on optional int"
    Jtype.Types.int
    (out "transform $.a + 1");
  (* a column within Int + Null sums to Int; any other may sum to a float *)
  Alcotest.check ty "sum types"
    (Jtype.Types.rec_
       [ Jtype.Types.field "key" Jtype.Types.int;
         Jtype.Types.field "s" Jtype.Types.int;
         Jtype.Types.field "t" (Jtype.Types.union [ Jtype.Types.int; Jtype.Types.num ]) ])
    (out "group by $.a into {s: sum $.a, t: sum $.b}")

let test_typing_heterogeneous_arith () =
  let t = input_type [ {|{"v": 1}|}; {|{"v": "s"}|} ] in
  let out q = Query.Typing.type_pipeline t (Query.Parse.pipeline_exn q) in
  Alcotest.check ty "mixed arith may be null"
    (Jtype.Types.union [ Jtype.Types.null; Jtype.Types.num ])
    (out "transform $.v * 2")

(* soundness: every dynamic output inhabits the inferred output type *)
let check_soundness name q srcs =
  let t = input_type srcs in
  let p = Query.Parse.pipeline_exn q in
  let out_t = Query.Typing.type_pipeline t p in
  let outputs = Query.Eval.run p (docs srcs) in
  List.iter
    (fun v ->
      if not (Jtype.Typecheck.member v out_t) then
        Alcotest.fail
          (Printf.sprintf "%s: output %s not in inferred type %s" name
             (Json.Printer.to_string v) (Jtype.Types.to_string out_t)))
    outputs

let test_typing_soundness_fixed () =
  let sales =
    [ {|{"region": "eu", "amount": 10, "items": [{"sku": "a"}, {"sku": "b"}]}|};
      {|{"region": "us", "amount": 20.5, "items": []}|};
      {|{"region": "eu", "amount": 5}|} ]
  in
  List.iter
    (fun q -> check_soundness q q sales)
    [ "filter $.amount > 7";
      "transform {r: $.region, a2: $.amount * 2, d: $.amount / $.amount}";
      "expand items";
      "expand items | transform $.sku";
      "group by $.region into {n: count, s: sum $.amount, m: min $.amount, a: avg $.amount}";
      "sort by $.amount desc | top 2 | transform [$.region, $.missing]";
      "transform $.items[0]";
      "transform {x: $.amount + $.missing}" ]

(* random pipelines over random heterogeneous corpora *)
let gen_field = QCheck2.Gen.oneofl [ "id"; "name"; "score"; "tags"; "nested"; "payload" ]

let gen_expr : Query.Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized @@ QCheck2.Gen.fix (fun self n ->
      if n <= 0 then
        oneof
          [ return Query.Ast.Ctx;
            map (fun f -> Query.Ast.Field (Query.Ast.Ctx, f)) gen_field;
            map (fun i -> Query.Ast.Const (Json.Value.Int i)) (int_range (-5) 5);
            return (Query.Ast.Const (Json.Value.String "x")) ]
      else
        oneof
          [ map (fun f -> Query.Ast.Field (Query.Ast.Ctx, f)) gen_field;
            map2 (fun a b -> Query.Ast.Binop (Query.Ast.Add, a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Query.Ast.Binop (Query.Ast.Mul, a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Query.Ast.Binop (Query.Ast.Div, a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Query.Ast.Binop (Query.Ast.Lt, a, b)) (self (n / 2)) (self (n / 2));
            map (fun e -> Query.Ast.Is_null e) (self (n - 1));
            map2
              (fun a b -> Query.Ast.Record [ ("u", a); ("v", b) ])
              (self (n / 2)) (self (n / 2));
            map (fun e -> Query.Ast.List [ e ]) (self (n - 1));
            map (fun e -> Query.Ast.Index (e, 0)) (self (n - 1)) ])

let gen_stage : Query.Ast.stage QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ map (fun e -> Query.Ast.Filter e) gen_expr;
      map (fun e -> Query.Ast.Transform e) gen_expr;
      map (fun f -> Query.Ast.Expand (Some f)) gen_field;
      return (Query.Ast.Expand None);
      map2
        (fun key agg -> Query.Ast.Group_by (key, [ ("g", agg) ]))
        gen_expr
        (oneof
           [ return Query.Ast.Count;
             map (fun e -> Query.Ast.Sum e) gen_expr;
             map (fun e -> Query.Ast.Avg e) gen_expr;
             map (fun e -> Query.Ast.Min e) gen_expr ]);
      map (fun e -> Query.Ast.Sort_by (e, `Asc)) gen_expr;
      map (fun n -> Query.Ast.Top n) (int_range 0 5) ]

let gen_pipeline = QCheck2.Gen.(list_size (int_range 1 4) gen_stage)

let prop_output_schema_sound =
  QCheck2.Test.make ~name:"output schema inference is sound" ~count:300
    QCheck2.Gen.(pair gen_pipeline (int_range 0 1000))
    (fun (pipeline, seed) ->
      let st = Datagen.rng ~seed in
      let docs = Datagen.heterogeneous st ~heterogeneity:1.0 20 in
      let t = Jtype.Merge.merge_all ~equiv:Jtype.Merge.Kind (List.map Jtype.Types.of_value docs) in
      let out_t = Query.Typing.type_pipeline t pipeline in
      let outputs = Query.Eval.run pipeline docs in
      List.for_all (fun v -> Jtype.Typecheck.member v out_t) outputs)

let prop_parse_print_roundtrip =
  QCheck2.Test.make ~name:"pipeline print/parse roundtrip" ~count:300 gen_pipeline
    (fun p ->
      match Query.Parse.pipeline (Query.Ast.to_string p) with
      | Ok p2 -> Query.Ast.to_string p = Query.Ast.to_string p2
      | Error _ -> false)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "query"
    [ ("eval",
       [ Alcotest.test_case "filter" `Quick test_filter;
         Alcotest.test_case "transform" `Quick test_transform;
         Alcotest.test_case "expand" `Quick test_expand;
         Alcotest.test_case "group" `Quick test_group;
         Alcotest.test_case "sort/top" `Quick test_sort_top;
         Alcotest.test_case "null semantics" `Quick test_null_semantics ]);
      ("parse",
       [ Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "negative numbers" `Quick test_negative_numbers ]);
      ("typing",
       [ Alcotest.test_case "basics" `Quick test_typing_basics;
         Alcotest.test_case "optional fields" `Quick test_typing_optional_fields;
         Alcotest.test_case "heterogeneous arith" `Quick test_typing_heterogeneous_arith;
         Alcotest.test_case "soundness (fixed)" `Quick test_typing_soundness_fixed ]);
      ("properties", q [ prop_output_schema_sound; prop_parse_print_roundtrip ]);
    ]
