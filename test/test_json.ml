(* Tests for the JSON substrate: values, numbers, lexer, parser, printer,
   pointers, paths, streaming. *)

let value : Json.Value.t Alcotest.testable =
  Alcotest.testable Json.Printer.pp Json.Value.equal_strict

let value_loose : Json.Value.t Alcotest.testable =
  Alcotest.testable Json.Printer.pp Json.Value.equal

let parse = Json.Parser.parse_exn
let print = Json.Printer.to_string

let check_roundtrip name src =
  Alcotest.(check string) name src (print (parse src))

(* --- Value ----------------------------------------------------------- *)

let test_accessors () =
  let v = parse {|{"a": 1, "b": [true, null], "c": "x", "d": 2.5}|} in
  Alcotest.(check (option int)) "int" (Some 1) Json.Value.(to_int (member_exn "a" v));
  Alcotest.(check (option string)) "string" (Some "x") Json.Value.(to_string (member_exn "c" v));
  Alcotest.(check (option (float 0.))) "float" (Some 2.5) Json.Value.(to_float (member_exn "d" v));
  Alcotest.(check (option (float 0.))) "int as float" (Some 1.0) Json.Value.(to_float (member_exn "a" v));
  Alcotest.(check bool) "has_member" true (Json.Value.has_member "b" v);
  Alcotest.(check bool) "missing" false (Json.Value.has_member "z" v);
  Alcotest.(check (option value)) "index" (Some Json.Value.Null)
    Json.Value.(index 1 (member_exn "b" v));
  Alcotest.(check (option value)) "negative index" (Some (Json.Value.Bool true))
    Json.Value.(index (-2) (member_exn "b" v));
  Alcotest.check_raises "type error" (Json.Value.Type_error "expected integer, got string")
    (fun () -> ignore (Json.Value.to_int_exn (Json.Value.String "hi")))

let test_equal_unordered () =
  let a = parse {|{"x": 1, "y": {"p": [1,2], "q": null}}|} in
  let b = parse {|{"y": {"q": null, "p": [1,2]}, "x": 1}|} in
  Alcotest.(check bool) "unordered equal" true (Json.Value.equal a b);
  Alcotest.(check bool) "strict differs" false (Json.Value.equal_strict a b);
  Alcotest.(check bool) "int/float equal" true
    (Json.Value.equal (Json.Value.Int 3) (Json.Value.Float 3.0));
  Alcotest.(check bool) "int/float strict" false
    (Json.Value.equal_strict (Json.Value.Int 3) (Json.Value.Float 3.0));
  Alcotest.(check bool) "array order matters" false
    (Json.Value.equal (parse "[1,2]") (parse "[2,1]"))

let test_structure_ops () =
  let v = parse {|{"a": {"b": [1, {"c": 2}]}, "d": 3}|} in
  Alcotest.(check int) "size" 7 (Json.Value.size v);
  Alcotest.(check int) "depth" 5 (Json.Value.depth v);
  Alcotest.(check (list (list string))) "paths"
    [ [ "a"; "b"; "[]" ]; [ "a"; "b"; "[]"; "c" ]; [ "d" ] ]
    (Json.Value.paths v);
  let doubled =
    Json.Value.map_values
      (function Json.Value.Int n -> Json.Value.Int (2 * n) | x -> x)
      v
  in
  Alcotest.check value "map_values" (parse {|{"a": {"b": [2, {"c": 4}]}, "d": 6}|}) doubled;
  let count_strings =
    Json.Value.fold
      (fun n x -> match x with Json.Value.String _ -> n + 1 | _ -> n)
      0
      (parse {|["a", {"k": "b"}, 1]|})
  in
  (* "k" is a key, not a value: only "a" and "b" count *)
  Alcotest.(check int) "fold" 2 count_strings

(* --- Number ---------------------------------------------------------- *)

let test_number_grammar () =
  let ok s = Alcotest.(check bool) s true (Json.Number.is_valid_literal s) in
  let bad s = Alcotest.(check bool) s false (Json.Number.is_valid_literal s) in
  List.iter ok [ "0"; "-0"; "1"; "-1"; "10.5"; "0.5"; "1e3"; "1E+3"; "1.5e-3"; "123456789" ];
  List.iter bad [ ""; "+1"; ".5"; "5."; "01"; "0x1"; "1e"; "1e+"; "--1"; "NaN"; "Infinity"; "1 " ]

let test_number_int_vs_float () =
  (match Json.Number.parse "42" with
   | Ok (Json.Number.Int_lit 42) -> ()
   | _ -> Alcotest.fail "42 should be Int_lit");
  (match Json.Number.parse "42.0" with
   | Ok (Json.Number.Float_lit f) -> Alcotest.(check (float 0.)) "42.0" 42.0 f
   | _ -> Alcotest.fail "42.0 should be Float_lit");
  (match Json.Number.parse "1e2" with
   | Ok (Json.Number.Float_lit f) -> Alcotest.(check (float 0.)) "1e2" 100.0 f
   | _ -> Alcotest.fail "1e2 should be Float_lit");
  (* huge integer literals degrade to float *)
  match Json.Number.parse "123456789012345678901234567890" with
  | Ok (Json.Number.Float_lit _) -> ()
  | _ -> Alcotest.fail "overflowing integer should degrade to float"

let test_number_parse_never_raises () =
  (* [parse] must return [Error] on every malformed literal — in particular
     the float conversion can never raise, whatever the grammar check let
     through *)
  List.iter
    (fun s ->
      match Json.Number.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "-"; "+"; "+1"; "1e"; "1e+"; "1E-"; "0x10"; "1_000"; "01"; ".5";
      "5."; "--1"; "1.2.3"; "NaN"; "Infinity"; "-Infinity"; "nan"; "inf";
      "1 "; " 1"; "1,5"; "e5"; "0b101"; "\xff"; "1\x00";
      (* well-formed but overflowing the double range: accepting these would
         produce an infinity no printer (or checkpoint journal) can
         re-encode, so they are errors, not values *)
      "1e999999"; "-1e999999"; "9e400" ];
  (* extreme literals that stay finite stay total: underflow degrades to
     [0.] rather than erroring or raising *)
  List.iter
    (fun s ->
      match Json.Number.parse s with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%S should parse: %s" s m)
    [ "1e-999999"; "0.0000000001e-400"; "1e308"; "-1.7e308" ]

let test_float_printing () =
  let check f expected =
    Alcotest.(check string) (string_of_float f) expected (Json.Number.print_float f)
  in
  check 1.5 "1.5";
  check 0.1 "0.1";
  check 100.0 "100.0";
  check (-2.5e-3) "-0.0025";
  Alcotest.(check bool) "roundtrip pi" true
    (float_of_string (Json.Number.print_float Float.pi) = Float.pi);
  Alcotest.check_raises "nan" (Invalid_argument "Json.Number.print_float: not representable in JSON")
    (fun () -> ignore (Json.Number.print_float Float.nan))

(* --- Parser ---------------------------------------------------------- *)

let test_parse_scalars () =
  Alcotest.check value "null" Json.Value.Null (parse "null");
  Alcotest.check value "true" (Json.Value.Bool true) (parse "true");
  Alcotest.check value "false" (Json.Value.Bool false) (parse " false ");
  Alcotest.check value "int" (Json.Value.Int (-17)) (parse "-17");
  Alcotest.check value "float" (Json.Value.Float 2.5) (parse "2.5");
  Alcotest.check value "string" (Json.Value.String "hi") (parse {|"hi"|})

let test_parse_escapes () =
  Alcotest.check value "escapes"
    (Json.Value.String "a\"b\\c/d\be\012f\ng\rh\ti")
    (parse {|"a\"b\\c\/d\be\ff\ng\rh\ti"|});
  Alcotest.check value "unicode bmp" (Json.Value.String "\xe2\x82\xac") (parse {|"€"|});
  Alcotest.check value "surrogate pair" (Json.Value.String "\xf0\x9d\x84\x9e")
    (parse {|"𝄞"|});
  Alcotest.check value "nul escape" (Json.Value.String "\x00") (parse {|"\u0000"|})

let expect_error src =
  match Json.Parser.parse src with
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" src)
  | Error _ -> ()

let test_parse_errors () =
  List.iter expect_error
    [ ""; "{"; "}"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "{a: 1}"; "[1 2]";
      {|"unterminated|}; "tru"; "nul"; "01"; "1.2.3"; {|{"a":1,}|};
      {|"bad \x escape"|}; {|"unpaired \uD834 surrogate"|}; "[1] extra";
      "\"ctrl \x01 char\"" ]

let test_parse_error_position () =
  match Json.Parser.parse "{\n  \"a\": 12,\n  \"b\": tru\n}" with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e ->
      Alcotest.(check int) "line" 3 e.Json.Parser.position.Json.Lexer.line;
      Alcotest.(check int) "column" 8 e.Json.Parser.position.Json.Lexer.column

let test_dup_keys () =
  let src = {|{"a": 1, "b": 2, "a": 3}|} in
  let with_policy p =
    Json.Parser.parse ~options:{ Json.Parser.default_options with Json.Parser.dup_keys = p } src
  in
  (match with_policy Json.Parser.Keep_last with
   | Ok v -> Alcotest.check value "keep_last" (parse {|{"a": 3, "b": 2}|}) v
   | Error _ -> Alcotest.fail "keep_last");
  (match with_policy Json.Parser.Keep_first with
   | Ok v -> Alcotest.check value "keep_first" (parse {|{"a": 1, "b": 2}|}) v
   | Error _ -> Alcotest.fail "keep_first");
  (match with_policy Json.Parser.Keep_all with
   | Ok (Json.Value.Object fields) ->
       Alcotest.(check int) "keep_all" 3 (List.length fields)
   | _ -> Alcotest.fail "keep_all");
  match with_policy Json.Parser.Reject with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reject should error"

let test_max_depth () =
  let deep = String.concat "" (List.init 40 (fun _ -> "[")) in
  let deep = deep ^ "1" ^ String.concat "" (List.init 40 (fun _ -> "]")) in
  let options = { Json.Parser.default_options with Json.Parser.max_depth = 10 } in
  (match Json.Parser.parse ~options deep with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "should exceed max depth");
  match Json.Parser.parse deep with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Json.Parser.string_of_error e)

let expect_budget ~violation options src =
  match Json.Parser.parse ~options src with
  | Ok _ -> Alcotest.failf "%S should be budget-killed" src
  | Error e -> (
      match e.Json.Parser.kind with
      | Json.Parser.Budget_exceeded v ->
          Alcotest.(check string) src violation (Json.Parser.violation_name v)
      | Json.Parser.Syntax ->
          Alcotest.failf "%S: expected a budget error, got syntax: %s" src
            e.Json.Parser.message)

let test_budgets () =
  let opts = Json.Parser.default_options in
  (* bytes: the whole document counts, not just the parsed prefix *)
  expect_budget ~violation:"max-bytes"
    { opts with Json.Parser.max_doc_bytes = Some 10 }
    {|{"key": [1, 2, 3, 4]}|};
  (* nodes: every value (scalars included) spends one node *)
  expect_budget ~violation:"max-nodes"
    { opts with Json.Parser.max_nodes = Some 4 }
    "[1, 2, 3, 4, 5]";
  (* string literal budget, enforced mid-lex so a huge string never
     materializes *)
  expect_budget ~violation:"max-string"
    { opts with Json.Parser.max_string_bytes = Some 8 }
    (Printf.sprintf {|"%s"|} (String.make 64 'x'));
  (* depth overflow is typed, not a plain syntax error *)
  expect_budget ~violation:"max-depth"
    { opts with Json.Parser.max_depth = 3 }
    "[[[[[1]]]]]";
  (* budget errors are recognizable without string matching *)
  (match Json.Parser.parse ~options:{ opts with Json.Parser.max_nodes = Some 1 } "[1]" with
   | Error e -> Alcotest.(check bool) "is_budget_error" true (Json.Parser.is_budget_error e)
   | Ok _ -> Alcotest.fail "should be killed");
  (match Json.Parser.parse "tru" with
   | Error e -> Alcotest.(check bool) "syntax is not budget" false (Json.Parser.is_budget_error e)
   | Ok _ -> Alcotest.fail "should be a syntax error");
  (* documents under budget are unaffected *)
  match
    Json.Parser.parse
      ~options:
        { opts with
          Json.Parser.max_doc_bytes = Some 1024;
          max_nodes = Some 100;
          max_string_bytes = Some 100 }
      {|{"a": [1, "two", null]}|}
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Json.Parser.string_of_error e)

let test_budget_unlimited_by_default () =
  (* the defaults impose no byte/node/string budget: a large flat document
     parses fine *)
  let big =
    "[" ^ String.concat "," (List.init 20000 string_of_int) ^ "]"
  in
  match Json.Parser.parse big with
  | Ok (Json.Value.Array vs) -> Alcotest.(check int) "all elements" 20000 (List.length vs)
  | _ -> Alcotest.fail "default options must not impose budgets"

let test_parse_many () =
  match Json.Parser.parse_many "{\"a\":1}\n{\"a\":2}\n[3]" with
  | Ok vs -> Alcotest.(check int) "three docs" 3 (List.length vs)
  | Error e -> Alcotest.fail (Json.Parser.string_of_error e)

(* Each document of [parse_many] is accounted from its first byte, as
   [parse_substring] accounts it: a one-token document is held to
   [max_doc_bytes], and [parse.bytes] counts every byte of every
   document. *)
let test_parse_many_bytes () =
  let options = { Json.Parser.default_options with max_doc_bytes = Some 4 } in
  let src = {|"twenty-two bytes ..."|} in
  let expect = Error "line 1, column 23: document exceeds 4 bytes" in
  let got p = Result.map (fun _ -> ()) (p ~options src) |> Result.map_error Json.Parser.string_of_error in
  Alcotest.(check (result unit string)) "parse" expect
    (got (fun ~options src -> Json.Parser.parse ~options src));
  Alcotest.(check (result unit string)) "parse_many" expect
    (got (fun ~options src -> Json.Parser.parse_many ~options src));
  let bytes src =
    let sink = Telemetry.create () in
    ignore (Json.Parser.parse_many ~telemetry:sink src);
    List.assoc "parse.bytes" (Telemetry.snapshot sink).Telemetry.counters
  in
  Alcotest.(check int) "bytes of [1,2] [3,4]" 10 (bytes "[1,2] [3,4]");
  Alcotest.(check int) "bytes after leading space" 5 (bytes "  [1,2]\n")

let test_parse_substring () =
  let src = "   {\"a\": [1,2]} trailing" in
  match Json.Parser.parse_substring src ~pos:0 with
  | Ok (v, stop) ->
      Alcotest.check value "value" (parse {|{"a":[1,2]}|}) v;
      Alcotest.(check int) "stop offset" 15 stop
  | Error e -> Alcotest.fail (Json.Parser.string_of_error e)

(* --- Printer --------------------------------------------------------- *)

let test_print_roundtrips () =
  List.iter (check_roundtrip "roundtrip")
    [ "null"; "true"; "[1,2,3]"; {|{"a":1,"b":[null,false],"c":{"d":"e"}}|};
      {|"quote\"backslash\\newline\n"|}; "[-1,0.5,100.0]"; "[]"; "{}" ]

let test_pretty_print () =
  let v = parse {|{"a": [1, 2], "b": {}}|} in
  Alcotest.(check string) "pretty"
    "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
    (Json.Printer.to_string_pretty v)

let test_escape_string () =
  Alcotest.(check string) "escape" "\"a\\\"b\\u0001\"" (Json.Printer.escape_string "a\"b\x01")

let test_print_utf8_sanitized () =
  (* pinned policy: valid UTF-8 passes through byte-for-byte; every byte
     that is not part of a valid scalar sequence becomes one U+FFFD, so the
     printer's output is always valid JSON (RFC 8259 §8.1: UTF-8) *)
  let fffd = "\xEF\xBF\xBD" in
  let escaped s = Json.Printer.escape_string s in
  Alcotest.(check string) "2/3/4-byte sequences untouched"
    "\"\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x90\xAB\""
    (escaped "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x90\xAB");
  Alcotest.(check string) "lone 0xFF replaced"
    ("\"a" ^ fffd ^ "b\"") (escaped "a\xFFb");
  Alcotest.(check string) "stray continuation byte replaced"
    ("\"" ^ fffd ^ "\"") (escaped "\x80");
  Alcotest.(check string) "overlong C0 80 replaced per byte"
    ("\"" ^ fffd ^ fffd ^ "\"") (escaped "\xC0\x80");
  Alcotest.(check string) "surrogate ED A0 80 replaced per byte"
    ("\"" ^ fffd ^ fffd ^ fffd ^ "\"") (escaped "\xED\xA0\x80");
  Alcotest.(check string) "truncated lead at end replaced per byte"
    ("\"ok" ^ fffd ^ fffd ^ "\"") (escaped "ok\xE2\x82");
  Alcotest.(check string) "beyond U+10FFFF replaced per byte"
    ("\"" ^ fffd ^ fffd ^ fffd ^ fffd ^ "\"") (escaped "\xF5\x80\x80\x80");
  (* sanitized output must itself re-parse: the checkpoint-journal property *)
  let junk = Json.Value.String "\xFE\xC3\xA9\x80tail" in
  let printed = Json.Printer.to_string junk in
  Alcotest.check value "sanitized output re-parses"
    (Json.Value.String ("\xEF\xBF\xBD\xC3\xA9\xEF\xBF\xBDtail"))
    (parse printed)

(* --- Pointer --------------------------------------------------------- *)

let test_pointer_parse () =
  let check_pp s = Alcotest.(check string) s s Json.Pointer.(to_string (parse_exn s)) in
  List.iter check_pp [ ""; "/a"; "/a/0/b"; "/a~0b/c~1d"; "/" ];
  match Json.Pointer.parse "no-slash" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject pointer without leading /"

let test_pointer_get () =
  let doc = parse {|{"foo": ["bar", "baz"], "": 0, "a/b": 1, "m~n": 8, "k\"l": 6}|} in
  let get s = Json.Pointer.(get (parse_exn s) doc) in
  Alcotest.(check (option value)) "root" (Some doc) (get "");
  Alcotest.(check (option value)) "/foo/0" (Some (Json.Value.String "bar")) (get "/foo/0");
  Alcotest.(check (option value)) "/foo/1" (Some (Json.Value.String "baz")) (get "/foo/1");
  Alcotest.(check (option value)) "/foo/2" None (get "/foo/2");
  Alcotest.(check (option value)) "empty key" (Some (Json.Value.Int 0)) (get "/");
  Alcotest.(check (option value)) "escaped slash" (Some (Json.Value.Int 1)) (get "/a~1b");
  Alcotest.(check (option value)) "escaped tilde" (Some (Json.Value.Int 8)) (get "/m~0n");
  Alcotest.(check (option value)) "quote in key" (Some (Json.Value.Int 6)) (get {|/k"l|})

let test_pointer_numeric_member () =
  let doc = parse {|{"0": "zero"}|} in
  Alcotest.(check (option value)) "numeric token on object"
    (Some (Json.Value.String "zero"))
    Json.Pointer.(get (parse_exn "/0") doc)

let test_pointer_index_overflow () =
  (* a canonical index literal beyond max_int used to demote silently to a
     Key and dereference objects instead of arrays; it is now an error *)
  let huge = "/18446744073709551616" in
  (match Json.Pointer.parse huge with
   | Error msg ->
       Alcotest.(check bool) "error names the index" true
         (Re.execp (Re.compile (Re.str "18446744073709551616")) msg)
   | Ok _ -> Alcotest.fail "overflowing index must not parse");
  (match Json.Pointer.parse "/a/99999999999999999999999999/b" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "overflow must be detected mid-pointer");
  (* non-canonical digit strings are still member names, not indices *)
  (match Json.Pointer.parse "/018446744073709551616" with
   | Ok [ Json.Pointer.Key k ] ->
       Alcotest.(check string) "leading zero stays a key" "018446744073709551616" k
   | _ -> Alcotest.fail "leading-zero token must stay a Key");
  (* max_int itself still classifies as an index *)
  let edge = "/" ^ string_of_int max_int in
  match Json.Pointer.parse edge with
  | Ok [ Json.Pointer.Index i ] -> Alcotest.(check int) "max_int index" max_int i
  | _ -> Alcotest.fail "max_int must classify as Index"

let test_pointer_set () =
  let doc = parse {|{"a": [1, 2], "b": 0}|} in
  let set p r =
    match Json.Pointer.set (Json.Pointer.parse_exn p) r doc with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.check value "replace member" (parse {|{"a":[1,2],"b":9}|})
    (set "/b" (Json.Value.Int 9));
  Alcotest.check value "replace element" (parse {|{"a":[1,9],"b":0}|})
    (set "/a/1" (Json.Value.Int 9));
  Alcotest.check value "append via length" (parse {|{"a":[1,2,9],"b":0}|})
    (set "/a/2" (Json.Value.Int 9));
  Alcotest.check value "append via -" (parse {|{"a":[1,2,9],"b":0}|})
    (set "/a/-" (Json.Value.Int 9));
  Alcotest.check value "add member" (parse {|{"a":[1,2],"b":0,"c":9}|})
    (set "/c" (Json.Value.Int 9));
  match Json.Pointer.set (Json.Pointer.parse_exn "/a/7") (Json.Value.Int 9) doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out of bounds set should fail"

(* --- JSONPath -------------------------------------------------------- *)

let test_jsonpath () =
  let doc =
    parse
      {|{"store": {"book": [{"title": "A", "price": 1},
                            {"title": "B", "price": 2}],
                   "bicycle": {"price": 3}}}|}
  in
  let eval s = Json.Jsonpath.(eval (parse_exn s) doc) in
  Alcotest.(check (list value)) "field chain"
    [ Json.Value.String "A" ]
    (eval "$.store.book[0].title");
  Alcotest.(check (list value)) "wildcard"
    [ Json.Value.Int 1; Json.Value.Int 2 ]
    (eval "$.store.book[*].price");
  Alcotest.(check (list value)) "descend"
    [ Json.Value.Int 1; Json.Value.Int 2; Json.Value.Int 3 ]
    (eval "$..price");
  Alcotest.(check (list value)) "quoted" [ Json.Value.Int 3 ]
    (eval "$.store['bicycle'].price");
  Alcotest.(check (list string)) "first_fields" [ "store" ]
    (Json.Jsonpath.first_fields (Json.Jsonpath.parse_exn "$.store.book"));
  Alcotest.(check string) "print"
    "$.store.book[0][*]..price"
    Json.Jsonpath.(to_string (parse_exn "$.store.book[0][*]..price"))

(* --- Document streams -------------------------------------------------- *)

let test_stream_errors () =
  List.iter
    (fun src ->
      match Json.Parser.fold_documents src ~init:() ~f:(fun () _ -> ()) with
      | Ok () -> Alcotest.fail (Printf.sprintf "%S should fail" src)
      | Error _ -> ())
    [ "[1,]"; "{\"a\"}"; "{\"a\":1,}"; "[1 2]"; "{1:2}" ]

let test_fold_documents () =
  let src = "{\"n\":1}\n{\"n\":2}  {\"n\":3}\n" in
  match
    Json.Parser.fold_documents src ~init:0 ~f:(fun acc v ->
        acc + Json.Value.(to_int_exn (member_exn "n" v)))
  with
  | Ok total -> Alcotest.(check int) "sum over documents" 6 total
  | Error e -> Alcotest.fail (Json.Parser.string_of_error e)

(* --- Properties ------------------------------------------------------ *)

let gen_value : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return Json.Value.Null;
        map (fun b -> Json.Value.Bool b) bool;
        map (fun n -> Json.Value.Int n) (int_range (-1000000) 1000000);
        map (fun f -> Json.Value.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Json.Value.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun vs -> Json.Value.Array vs) (list_size (int_range 0 4) (self (n / 2))));
            (1,
             map
               (fun fields ->
                 (* distinct keys: duplicate keys break print/parse roundtrip *)
                 let seen = Hashtbl.create 8 in
                 Json.Value.Object
                   (List.filter
                      (fun (k, _) ->
                        if Hashtbl.mem seen k then false
                        else (Hashtbl.add seen k (); true))
                      fields))
               (list_size (int_range 0 4) (pair key (self (n / 2)))));
          ])

(* strings with every escape class: quotes and backslashes, named and
   [\u] control escapes, valid multi-byte UTF-8, and bytes that are not
   part of a valid sequence (each printed as U+FFFD) *)
let gen_printed_string =
  let open QCheck2.Gen in
  let piece =
    oneof
      [ map (String.make 1) printable;
        oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\b"; "\012"; "\001"; "\031"; "\127" ];
        oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ];
        map (String.make 1) (char_range '\x80' '\xff');
        oneofl [ "\xed\xa0\x80"; "\xe2\x82"; "\xc0\xaf"; "\xf4\x90\x80\x80" ] ]
  in
  map (String.concat "") (list_size (int_range 0 6) piece)

let gen_printed_value =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return Json.Value.Null;
        map (fun b -> Json.Value.Bool b) bool;
        map (fun n -> Json.Value.Int n)
          (oneof [ int; oneofl [ 0; -1; 9; 10; -10; max_int; min_int ] ]);
        map (fun f -> Json.Value.Float f)
          (oneof
             [ float;
               float_range (-1e3) 1e3;
               oneofl [ 0.0; -0.0; 1e21; 1e-7; 5e-324; 1.7976931348623157e308; 0.1 ] ]);
        map (fun s -> Json.Value.String s) gen_printed_string ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun vs -> Json.Value.Array vs) (list_size (int_range 0 4) (self (n / 2))));
            (1,
             map
               (fun fields -> Json.Value.Object fields)
               (list_size (int_range 0 4) (pair gen_printed_string (self (n / 2))))) ])

let prop_printer_length =
  QCheck2.Test.make ~name:"length = String.length to_string" ~count:2000
    ~print:Json.Printer.to_string gen_printed_value (fun v ->
      Json.Printer.length v = String.length (Json.Printer.to_string v))

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print |> parse = id" ~count:500 gen_value (fun v ->
      Json.Value.equal_strict v (parse (print v)))

let prop_pretty_parse_roundtrip =
  QCheck2.Test.make ~name:"pretty |> parse = id" ~count:200 gen_value (fun v ->
      Json.Value.equal_strict v (parse (Json.Printer.to_string_pretty v)))

let prop_sort_keys_idempotent =
  QCheck2.Test.make ~name:"sort_keys idempotent" ~count:300 gen_value (fun v ->
      let s = Json.Value.sort_keys v in
      Json.Value.equal_strict s (Json.Value.sort_keys s))

let prop_equal_reflexive_compare_total =
  QCheck2.Test.make ~name:"equal reflexive; compare antisym" ~count:300
    (QCheck2.Gen.pair gen_value gen_value) (fun (a, b) ->
      Json.Value.equal a a
      && Json.Value.compare a b = -Json.Value.compare b a)

let prop_paths_count_bounded =
  QCheck2.Test.make ~name:"paths <= size" ~count:300 gen_value (fun v ->
      List.length (Json.Value.paths v) <= Json.Value.size v)

(* [Lexer.skim] is the token source of the fused engines: on escape-free
   input every token must come back without a single minor-heap word —
   no per-call closures in the whitespace, keyword, string and number
   scanners. The measurement's own overhead (boxing the float counter) is
   taken from an empty run and subtracted. *)
let skim_fixture =
  String.concat "\n"
    [ {|{"id": 123456789, "ratio": -0.25, "exp": 6.02e23, "neg": -1E-7,|};
      {|  "ok": true, "no": false, "none": null, "zero": 0, "big": 999999999999999999,|};
      "\t\"text\": \"" ^ String.make 200 'x' ^ "\", \"utf8\": \"caf\xc3\xa9 \xe2\x82\xac\",";
      {|  "list": [1, 2.5, "", [], {}, [[null]]]}|};
      {|[true, false, null, 42, 4.2, "s"]|};
      {|"top" 7 -3.5e-2|} ]

let rec skim_count lx n =
  match Json.Lexer.skim lx with
  | Json.Lexer.S_eof -> n
  | _ -> skim_count lx (n + 1)

let test_skim_allocation_free () =
  List.iter
    (fun max_string_bytes ->
      let lx = Json.Lexer.create ?max_string_bytes skim_fixture in
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      let n = skim_count lx 0 in
      let w2 = Gc.minor_words () in
      Alcotest.(check int) "tokens" 83 n;
      Alcotest.(check (float 0.0)) "minor words per skim loop" (w1 -. w0) (w2 -. w1))
    [ None; Some 4096 ]

(* Number tokens: [skim] reads a number literal as [Number.parse] reads it,
   as the reference parser's [next] does: [next]'s [Number_tok] is its
   value, or its error message at the literal's first byte; [skim]
   classifies it as [S_int] or [S_float] (or raises that error), and
   [number_of_last] then gives its value. The
   literals cover the grammar's edges: up to 20 digits, leading zeros,
   [-0], fractions, signed exponents, overflow and truncated forms. *)
let gen_number_literal : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let digits lo hi = string_size ~gen:(char_range '0' '9') (int_range lo hi) in
  let opt g = oneof [ return ""; g ] in
  let composed =
    map
      (fun (((minus, int_part), (frac, exp)), lead_zero) ->
        let int_part =
          if lead_zero then "0" ^ int_part
          else if minus = "" && int_part = "" then "1"
          else int_part
        in
        minus ^ int_part ^ frac ^ exp)
      (pair
         (pair
            (pair (opt (return "-")) (digits 0 20))
            (pair
               (opt (map (( ^ ) ".") (digits 0 4)))
               (opt
                  (map2 ( ^ )
                     (oneofl [ "e"; "E"; "e+"; "e-"; "E+"; "E-" ])
                     (digits 0 4)))))
         (frequency [ (5, return false); (1, return true) ]))
  in
  frequency
    [ (4, composed);
      ( 1,
        oneofl
          [ "0"; "-0"; "-0.0"; "1e400"; "-1e400"; "1e-400"; "1."; "-"; "1e"; "1e+";
            "00"; "-01"; "999999999999999999"; "1000000000000000000";
            "9223372036854775807"; "9223372036854775808"; "-9223372036854775808";
            "12345678901234567890"; "1.0e308"; "17976931348623157e292" ] ) ]

let same_number a b =
  match (a, b) with
  | Json.Number.Int_lit x, Json.Number.Int_lit y -> x = y
  | Json.Number.Float_lit x, Json.Number.Float_lit y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let prop_number_tokens =
  QCheck2.Test.make ~name:"number tokens = Number.parse" ~count:1000
    ~print:(Printf.sprintf "%S") gen_number_literal (fun lit ->
      let module L = Json.Lexer in
      let src = "[" ^ lit ^ "]" in
      let expected = Json.Number.parse lit in
      let at_one (p : L.position) = p.L.offset = 1 && p.L.line = 1 && p.L.column = 2 in
      let next_agrees =
        let module R = Reference_parser in
        let lx = R.create src in
        ignore (R.next lx);
        match (R.next lx, expected) with
        | (R.Number_tok p, pos), Ok p' ->
            at_one pos && same_number p p' && fst (R.next lx) = R.Rbracket
        | _ -> false
        | exception L.Lex_error (pos, msg) -> (
            at_one pos && match expected with Error m -> m = msg | Ok _ -> false)
      in
      let skim_agrees =
        let lx = L.create src in
        ignore (L.skim lx);
        match (L.skim lx, expected) with
        | (L.S_int, Ok (Json.Number.Int_lit _ as p) | L.S_float, Ok (Json.Number.Float_lit _ as p)) ->
            L.tok_start lx = 1
            && same_number (L.number_of_last lx) p
            && L.skim lx = L.S_rbracket
        | _ -> false
        | exception L.Lex_error (pos, msg) -> (
            at_one pos && match expected with Error m -> m = msg | Ok _ -> false)
      in
      next_agrees && skim_agrees)

(* [skim_key] reads a plain key exactly when [skim] would read that key
   spelled raw, and leaves the lexer where [skim] leaves it: after the key,
   or after a colon right behind it. Otherwise it has consumed only the
   whitespace [skim] skips first. *)
let gen_key_source =
  let open QCheck2.Gen in
  let name = oneofl [ ""; "a"; "ab"; "id"; "caf\xc3\xa9" ] in
  let ws = oneofl [ ""; " "; "\n "; "\t\r\n" ] in
  let tail name =
    oneofl
      [ ""; ":"; " :"; ":1"; ","; "}"; "x\":"; "\\\""; "\"" ^ name ^ "\":" ]
  in
  let spelling name =
    oneofl
      [ name; name ^ "x"; "x" ^ name; String.concat "" (List.init (String.length name) (fun i ->
            Printf.sprintf "\\u%04x" (Char.code name.[i]))) ]
  in
  let* name = name in
  let* body =
    oneof
      [ map3 (fun s q t -> "\"" ^ s ^ q ^ t) (spelling name) (oneofl [ "\""; "" ]) (tail name);
        oneofl [ "}"; "1"; "[\"a\"]"; "" ] ]
  in
  let* ws = ws in
  let* limit = oneofl [ None; Some (String.length name); Some (String.length name - 1) ] in
  return (name, ws ^ body, limit)

let prop_skim_key =
  QCheck2.Test.make ~name:"skim_key = skim on a raw key" ~count:2000
    ~print:(fun (name, src, limit) ->
      Printf.sprintf "%S in %S, max_string_bytes %s" name src
        (match limit with Some n -> string_of_int n | None -> "-"))
    gen_key_source
    (fun (name, src, max_string_bytes) ->
      let module L = Json.Lexer in
      let by_key = L.create ?max_string_bytes src and by_skim = L.create ?max_string_bytes src in
      let m = L.skim_key by_key name in
      let skimmed =
        match L.skim by_skim with
        | L.S_string ->
            (not (L.last_string_escaped by_skim))
            && String.equal (L.string_of_last by_skim) name
        | _ -> false
        | exception (L.Lex_error _ | L.Limit_error _) -> false
      in
      let same_string () =
        L.last_string_start by_key = L.last_string_start by_skim
        && L.last_string_stop by_key = L.last_string_stop by_skim
        && not (L.last_string_escaped by_key)
      in
      let same_place () =
        L.offset by_key = L.offset by_skim && L.tok_start by_key = L.tok_start by_skim
        && L.position by_key = L.position by_skim
      in
      match m with
      | L.No_key ->
          (* only the leading whitespace is consumed, lines counted *)
          let ws_end = ref 0 and line = ref 1 and bol = ref 0 in
          while !ws_end < String.length src && String.contains " \t\r\n" src.[!ws_end] do
            incr ws_end;
            if src.[!ws_end - 1] = '\n' then begin
              incr line;
              bol := !ws_end
            end
          done;
          (not skimmed)
          && L.position by_key
             = { L.offset = !ws_end; line = !line; column = !ws_end - !bol + 1 }
      | L.Key ->
          skimmed && same_string () && same_place ()
          && (L.offset by_skim >= String.length src || src.[L.offset by_skim] <> ':')
      | L.Key_colon ->
          skimmed && same_string ()
          && L.skim by_skim = L.S_colon
          && same_place ())

(* [Json.Parser.apply_dup_policy] as it was before it first checked for a
   repeated key: two tables under [Keep_last], one under [Keep_first] and
   [Reject], on every object. The reference for what each policy keeps and
   for [Reject]'s message and position. *)
let reference_dup_policy policy fields_rev last_pos =
  let fields = List.rev fields_rev in
  match policy with
  | Json.Parser.Keep_all -> fields
  | Json.Parser.Reject ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (k, _) ->
          if Hashtbl.mem seen k then
            Json.Parser.fail last_pos (Printf.sprintf "duplicate key %S" k)
          else Hashtbl.add seen k ())
        fields;
      fields
  | Json.Parser.Keep_first ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (k, _) ->
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        fields
  | Json.Parser.Keep_last ->
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

(* Field lists of up to 30 members (past the pairwise scan's 12), keys from
   a pool of 3 (repeats nearly always) or of 26^3 (repeats rarely), each
   field's payload its index so a kept value shows which one it is. *)
let gen_dup_case =
  let open QCheck2.Gen in
  let key =
    oneof
      [ map (String.make 1) (char_range 'a' 'c');
        string_size ~gen:(char_range 'a' 'z') (int_range 1 3) ]
  in
  triple
    (oneofl Json.Parser.[ Keep_first; Keep_last; Reject; Keep_all ])
    (map (List.mapi (fun i k -> (k, i))) (list_size (int_range 0 30) key))
    (int_range 0 200)

let prop_dup_policy =
  QCheck2.Test.make ~name:"apply_dup_policy = reference" ~count:2000
    ~print:(fun (_, fields, _) ->
      String.concat ", " (List.map (fun (k, i) -> Printf.sprintf "%s=%d" k i) fields))
    gen_dup_case
    (fun (policy, fields, offset) ->
      let pos = { Json.Lexer.offset; line = 1; column = offset + 1 } in
      let run f = Json.Parser.run (Json.Lexer.create "") (fun () -> f policy fields pos) in
      run Json.Parser.apply_dup_policy = run reference_dup_policy)

(* the published FNV-1a 64 test vectors; the checkpoint journals key on
   these digests *)
let test_fnv_vectors () =
  List.iter
    (fun (s, hex) -> Alcotest.(check string) (Printf.sprintf "%S" s) hex (Json.Fnv.hex s))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

(* hashing a megabyte allocates what a short string does: nothing per byte *)
let test_fnv_allocation_free () =
  let big = String.make 1_000_000 'x' in
  let words s =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Json.Fnv.hash64 s));
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "minor words" (words "x") (words big)

(* --- the tree parser against the reference ------------------------------

   [Json.Parser]'s tree walk on [Lexer.skim] against [Reference_parser], the
   parser it replaced: generated documents (escapes, surrogates, repeated
   keys, number edge cases, newlines), corrupted copies of them and
   trailing input, under every duplicate-key policy and budgets down to
   0-3. [parse], [parse_substring] (from 0, the first byte or anywhere) and
   [parse_many] must agree with the reference on the value (floats by
   bits), the stop offset, the error (message, position and kind), and the
   per-document [parse.docs], [parse.bytes] and [parse.nodes]. *)

let gen_doc_text : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let ws = frequency [ (6, return ""); (2, return " "); (1, oneofl [ "\n"; "\t\r\n  " ]) ] in
  let piece =
    frequency
      [ (6, map (String.make 1) (char_range 'a' 'z'));
        (3, oneofl [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\n|}; {|\t|}; {|\u00e9|}; {|\u0041|};
                     {|\ud83d\ude00|}; "\xc3\xa9"; "\xf0\x9f\x98\x80" ]);
        (1, oneofl [ {|\ud83d|}; {|\udc00|}; {|\ud83d\u0041|}; {|\x|}; {|\u12|}; {|\uzz00|};
                     "\001"; "\n" ]) ]
  in
  let str = map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (list_size (int_range 0 5) piece) in
  let number =
    oneofl
      [ "0"; "-0"; "7"; "-12"; "1.5"; "-0.25"; "1e3"; "2E-2"; "1.0"; "3.0e2"; "1e400"; "1e-400";
        "12345678901234567890"; "9223372036854775808"; "01"; "1."; "-"; "1e"; ".5" ]
  in
  let scalar =
    frequency
      [ (1, oneofl [ "null"; "true"; "false"; "tru"; "nul" ]); (2, number); (2, str) ]
  in
  let key = oneofl [ {|"a"|}; {|"b"|}; {|"\u0061"|}; {|"c\n"|}; {|"ab"|} ] in
  let value =
    sized @@ fix (fun self n ->
        if n <= 0 then scalar
        else
          let sub = self (n / 3) in
          let sep = map2 (fun a b -> a ^ "," ^ b) ws ws in
          let joined g =
            let* items = list_size (int_range 0 4) g in
            let* sep = sep in
            return (String.concat sep items)
          in
          frequency
            [ (3, scalar);
              (1, map2 (fun body w -> "[" ^ w ^ body ^ "]") (joined sub) ws);
              ( 1,
                map2 (fun body w -> "{" ^ w ^ body ^ "}")
                  (joined (map3 (fun k w v -> k ^ w ^ ":" ^ v) key ws sub))
                  ws ) ])
  in
  let doc = map3 (fun a v b -> a ^ v ^ b) ws value ws in
  let corrupt src =
    let* edits =
      list_size (int_range 1 3)
        (triple nat (int_range 0 2) (oneofl [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; '1'; ' '; '\n' ]))
    in
    return
      (List.fold_left
         (fun s (pos, kind, c) ->
           let n = String.length s in
           if n = 0 then String.make 1 c
           else
             let pos = pos mod n in
             match kind with
             | 0 -> String.mapi (fun i ch -> if i = pos then c else ch) s
             | 1 -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
             | _ -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos))
         src edits)
  in
  let* d = doc in
  frequency
    [ (4, return d);
      (3, corrupt d);
      (2, map (fun t -> d ^ t) (oneofl [ " 1"; "\n{\"a\":1}"; "]"; " x"; "\n\n[2] [3]"; "," ]));
      (1, map2 (fun a b -> a ^ "\n" ^ b) doc doc) ]

let gen_parse_options : Json.Parser.options QCheck2.Gen.t =
  let open QCheck2.Gen in
  let small = int_range 0 3 in
  let cap big = frequency [ (2, return None); (2, map Option.some small); (1, return (Some big)) ] in
  let* dup_keys =
    oneofl Json.Parser.[ Keep_first; Keep_last; Reject; Keep_all ]
  in
  let* max_depth = frequency [ (2, small); (1, return 512) ] in
  let* allow_trailing = bool in
  let* max_doc_bytes = cap 24 in
  let* max_nodes = cap 8 in
  let* max_string_bytes = frequency [ (3, return None); (1, map Option.some small) ] in
  return
    { Json.Parser.dup_keys; max_depth; allow_trailing; max_doc_bytes; max_nodes;
      max_string_bytes }

let rec same_json (a : Json.Value.t) (b : Json.Value.t) =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Array xs, Array ys -> List.equal same_json xs ys
  | Object xs, Object ys ->
      List.equal (fun (k, x) (k', y) -> String.equal k k' && same_json x y) xs ys
  | (Null | Bool _ | Int _ | String _), _ -> a = b
  | (Float _ | Array _ | Object _), _ -> false

(* the result and the [parse.*] counters of one entry point *)
let with_counters f =
  let sink = Telemetry.create () in
  let r = f sink in
  let counters = (Telemetry.snapshot sink).Telemetry.counters in
  let get k = Option.value (List.assoc_opt k counters) ~default:0 in
  (r, (get "parse.docs", get "parse.bytes", get "parse.nodes"))

let totals docs =
  (List.length docs, List.fold_left (fun a (b, _) -> a + b) 0 docs,
   List.fold_left (fun a (_, n) -> a + n) 0 docs)

let same_outcome same (r, counters) (r', docs) =
  counters = totals docs
  &&
  match (r, r') with
  | Ok x, Ok y -> same x y
  | Error (e : Json.Parser.error), Error e' -> e = e'
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_reference =
  QCheck2.Test.make ~name:"parser = reference parser" ~count:3000
    ~print:(fun (src, _, pos) -> Printf.sprintf "%S from %d" src pos)
    QCheck2.Gen.(
      let* src = gen_doc_text in
      let* options = gen_parse_options in
      let* pos = int_range 0 (String.length src) in
      return (src, options, pos))
    (fun (src, options, pos) ->
      let module R = Reference_parser in
      let first = ref 0 in
      while !first < String.length src && String.contains " \t\r\n" src.[!first] do incr first done;
      same_outcome same_json
        (with_counters (fun telemetry -> Json.Parser.parse ~options ~telemetry src))
        (R.parse options src)
      && same_outcome (List.equal same_json)
           (with_counters (fun telemetry -> Json.Parser.parse_many ~options ~telemetry src))
           (R.parse_many options src)
      && List.for_all
           (fun pos ->
             same_outcome
               (fun (v, stop) (v', stop') -> stop = stop' && same_json v v')
               (with_counters (fun telemetry ->
                    Json.Parser.parse_substring ~options ~telemetry src ~pos))
               (R.parse_substring options src ~pos))
           [ 0; !first; pos ])

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "json"
    [ ("value",
       [ Alcotest.test_case "accessors" `Quick test_accessors;
         Alcotest.test_case "unordered equality" `Quick test_equal_unordered;
         Alcotest.test_case "structure ops" `Quick test_structure_ops ]);
      ("number",
       [ Alcotest.test_case "grammar" `Quick test_number_grammar;
         Alcotest.test_case "int vs float" `Quick test_number_int_vs_float;
         Alcotest.test_case "parse never raises" `Quick test_number_parse_never_raises;
         Alcotest.test_case "float printing" `Quick test_float_printing ]);
      ("parser",
       [ Alcotest.test_case "scalars" `Quick test_parse_scalars;
         Alcotest.test_case "escapes" `Quick test_parse_escapes;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "error position" `Quick test_parse_error_position;
         Alcotest.test_case "duplicate keys" `Quick test_dup_keys;
         QCheck_alcotest.to_alcotest prop_dup_policy;
         Alcotest.test_case "max depth" `Quick test_max_depth;
         Alcotest.test_case "budgets" `Quick test_budgets;
         Alcotest.test_case "budgets off by default" `Quick test_budget_unlimited_by_default;
         Alcotest.test_case "parse_many" `Quick test_parse_many;
         Alcotest.test_case "parse_many bytes" `Quick test_parse_many_bytes;
         QCheck_alcotest.to_alcotest prop_reference;
         Alcotest.test_case "parse_substring" `Quick test_parse_substring ]);
      ("printer",
       [ Alcotest.test_case "roundtrips" `Quick test_print_roundtrips;
         Alcotest.test_case "pretty" `Quick test_pretty_print;
         Alcotest.test_case "escape_string" `Quick test_escape_string;
         Alcotest.test_case "utf8 sanitized" `Quick test_print_utf8_sanitized ]);
      ("pointer",
       [ Alcotest.test_case "parse/print" `Quick test_pointer_parse;
         Alcotest.test_case "get (RFC 6901 examples)" `Quick test_pointer_get;
         Alcotest.test_case "numeric member" `Quick test_pointer_numeric_member;
         Alcotest.test_case "index overflow" `Quick test_pointer_index_overflow;
         Alcotest.test_case "set" `Quick test_pointer_set ]);
      ("jsonpath", [ Alcotest.test_case "eval" `Quick test_jsonpath ]);
      ("lexer",
       [ Alcotest.test_case "skim allocation-free" `Quick test_skim_allocation_free;
         QCheck_alcotest.to_alcotest prop_number_tokens;
         QCheck_alcotest.to_alcotest prop_skim_key ]);
      ("fnv",
       [ Alcotest.test_case "FNV-1a 64 vectors" `Quick test_fnv_vectors;
         Alcotest.test_case "allocation-free" `Quick test_fnv_allocation_free ]);
      ("stream",
       [ Alcotest.test_case "errors" `Quick test_stream_errors;
         Alcotest.test_case "fold_documents" `Quick test_fold_documents ]);
      ("properties",
       q [ prop_print_parse_roundtrip; prop_pretty_parse_roundtrip;
           prop_sort_keys_idempotent;
           prop_equal_reflexive_compare_total; prop_paths_count_bounded;
           prop_printer_length ]);
    ]

let _ = value_loose
