(* Tests for the JSON Schema implementation: keyword-by-keyword validation
   semantics, $ref resolution, round-trip printing, well-formedness,
   instance generation. *)

let parse = Json.Parser.parse_exn

let valid ?config schema_src instance_src =
  Jsonschema.Validate.is_valid ?config ~root:(parse schema_src) (parse instance_src)

let check_valid ?config schema_src instance_src =
  if not (valid ?config schema_src instance_src) then
    Alcotest.fail (Printf.sprintf "%s should accept %s" schema_src instance_src)

let check_invalid ?config schema_src instance_src =
  if valid ?config schema_src instance_src then
    Alcotest.fail (Printf.sprintf "%s should reject %s" schema_src instance_src)

(* --- keyword semantics ------------------------------------------------ *)

let test_boolean_schemas () =
  check_valid "true" "17";
  check_valid "{}" {|{"anything": ["goes"]}|};
  check_invalid "false" "17"

let test_type_keyword () =
  check_valid {|{"type": "string"}|} {|"x"|};
  check_invalid {|{"type": "string"}|} "1";
  check_valid {|{"type": "integer"}|} "3";
  (* a float with integral value is an integer, per draft-6+ *)
  check_valid {|{"type": "integer"}|} "3.0";
  check_invalid {|{"type": "integer"}|} "3.5";
  check_valid {|{"type": "number"}|} "3.5";
  check_valid {|{"type": ["string", "null"]}|} "null";
  check_invalid {|{"type": ["string", "null"]}|} "true";
  check_valid {|{"type": "array"}|} "[]";
  check_valid {|{"type": "object"}|} "{}";
  check_invalid {|{"type": "object"}|} "[]";
  (* assertions for other types are vacuous *)
  check_valid {|{"minLength": 100}|} "42";
  check_valid {|{"minimum": 100}|} {|"short"|}

let test_enum_const () =
  check_valid {|{"enum": [1, "two", [3], {"f": 4}]}|} {|{"f": 4}|};
  check_valid {|{"enum": [1, "two"]}|} "1";
  check_invalid {|{"enum": [1, "two"]}|} "2";
  (* enum comparison is unordered-object equality *)
  check_valid {|{"enum": [{"a": 1, "b": 2}]}|} {|{"b": 2, "a": 1}|};
  check_valid {|{"const": 3}|} "3";
  check_valid {|{"const": 3}|} "3.0";
  check_invalid {|{"const": 3}|} "4"

(* Audited and verified not a bug: JSON has one number type, so 1 and 1.0
   must be the same value to uniqueItems/enum/const. The tree engine's
   sorted-dup check goes through Value.compare (which compares Int/Float
   through the float image) and the compiled engine's hashed literal sets
   hash Int through the same image — this pins both, including the hashed
   path (enum >= 4 literals) the scan-path tests never reach. *)
let test_numeric_literal_equality_both_engines () =
  let both schema_src instance_src expect =
    let schema = parse schema_src and instance = parse instance_src in
    let tree = Jsonschema.Validate.is_valid ~root:schema instance in
    let compiled =
      match Jsonschema.Compile.compile schema with
      | Ok plan -> Jsonschema.Compile.is_valid plan instance
      | Error _ -> Alcotest.fail (schema_src ^ " must compile")
    in
    Alcotest.(check bool) ("tree: " ^ schema_src ^ " / " ^ instance_src)
      expect tree;
    Alcotest.(check bool) ("compiled: " ^ schema_src ^ " / " ^ instance_src)
      expect compiled
  in
  both {|{"uniqueItems": true}|} "[1, 1.0]" false;
  both {|{"uniqueItems": true}|} {|[{"a": 1}, {"a": 1.0}]|} false;
  both {|{"uniqueItems": true}|} {|[1, "1"]|} true;
  both {|{"enum": [1]}|} "1.0" true;
  both {|{"const": 1}|} "1.0" true;
  both {|{"const": 1.0}|} "1" true;
  (* >= 4 literals engages Compile's hashed literal_set *)
  both {|{"enum": [1, 2.0, 3, "x"]}|} "1.0" true;
  both {|{"enum": [1, 2.0, 3, "x"]}|} "2" true;
  both {|{"enum": [1, 2.0, 3, "x"]}|} "2.5" false;
  both {|{"enum": [1, 2.0, 3, "x"]}|} {|"1"|} false

let test_numeric_keywords () =
  check_valid {|{"minimum": 2, "maximum": 5}|} "3";
  check_valid {|{"minimum": 2}|} "2";
  check_invalid {|{"minimum": 2}|} "1.9";
  check_invalid {|{"maximum": 5}|} "5.1";
  check_valid {|{"exclusiveMinimum": 2}|} "2.1";
  check_invalid {|{"exclusiveMinimum": 2}|} "2";
  check_valid {|{"exclusiveMaximum": 5}|} "4.9";
  check_invalid {|{"exclusiveMaximum": 5}|} "5";
  (* draft-4 boolean form *)
  check_invalid {|{"maximum": 5, "exclusiveMaximum": true}|} "5";
  check_valid {|{"maximum": 5, "exclusiveMaximum": false}|} "5";
  check_invalid {|{"minimum": 2, "exclusiveMinimum": true}|} "2";
  check_valid {|{"multipleOf": 2}|} "8";
  check_invalid {|{"multipleOf": 2}|} "7";
  check_valid {|{"multipleOf": 0.1}|} "0.3";
  check_valid {|{"multipleOf": 2.5}|} "7.5"

let test_string_keywords () =
  check_valid {|{"minLength": 2, "maxLength": 4}|} {|"abc"|};
  check_invalid {|{"minLength": 2}|} {|"a"|};
  check_invalid {|{"maxLength": 4}|} {|"abcde"|};
  (* length counts code points, not bytes: €
     is 3 bytes but 1 character *)
  check_valid {|{"maxLength": 1}|} {|"€"|};
  check_valid {|{"pattern": "^a.*z$"}|} {|"abcz"|};
  check_invalid {|{"pattern": "^a.*z$"}|} {|"abc"|};
  (* pattern is a search unless anchored *)
  check_valid {|{"pattern": "b+"}|} {|"abbc"|}

let test_array_keywords () =
  check_valid {|{"items": {"type": "integer"}}|} "[1,2,3]";
  check_invalid {|{"items": {"type": "integer"}}|} {|[1,"x"]|};
  check_valid {|{"items": [{"type": "integer"}, {"type": "string"}]}|} {|[1,"x"]|};
  (* tuple shorter than items is fine *)
  check_valid {|{"items": [{"type": "integer"}, {"type": "string"}]}|} "[1]";
  check_invalid {|{"items": [{"type": "integer"}], "additionalItems": {"type": "string"}}|}
    "[1, 2]";
  check_valid {|{"items": [{"type": "integer"}], "additionalItems": {"type": "string"}}|}
    {|[1, "x", "y"]|};
  check_valid {|{"minItems": 1, "maxItems": 2}|} "[1]";
  check_invalid {|{"minItems": 1}|} "[]";
  check_invalid {|{"maxItems": 2}|} "[1,2,3]";
  check_valid {|{"uniqueItems": true}|} {|[1, "1", [1], {"a":1}]|};
  check_invalid {|{"uniqueItems": true}|} "[1, 2, 1]";
  (* 1 and 1.0 are the same JSON number *)
  check_invalid {|{"uniqueItems": true}|} "[1, 1.0]";
  (* unordered object equality applies *)
  check_invalid {|{"uniqueItems": true}|} {|[{"a":1,"b":2}, {"b":2,"a":1}]|};
  check_valid {|{"contains": {"type": "string"}}|} {|[1, "x"]|};
  check_invalid {|{"contains": {"type": "string"}}|} "[1, 2]"

let test_object_keywords () =
  check_valid {|{"properties": {"a": {"type": "integer"}}}|} {|{"a": 1}|};
  check_invalid {|{"properties": {"a": {"type": "integer"}}}|} {|{"a": "x"}|};
  (* properties does not require *)
  check_valid {|{"properties": {"a": {"type": "integer"}}}|} "{}";
  check_invalid {|{"required": ["a"]}|} "{}";
  check_valid {|{"required": ["a"]}|} {|{"a": null}|};
  check_valid {|{"minProperties": 1, "maxProperties": 2}|} {|{"a": 1}|};
  check_invalid {|{"minProperties": 1}|} "{}";
  check_invalid {|{"maxProperties": 1}|} {|{"a": 1, "b": 2}|};
  check_valid {|{"patternProperties": {"^x_": {"type": "integer"}}}|} {|{"x_a": 1, "other": "s"}|};
  check_invalid {|{"patternProperties": {"^x_": {"type": "integer"}}}|} {|{"x_a": "s"}|};
  (* additionalProperties sees only unmatched fields *)
  check_valid
    {|{"properties": {"a": {}}, "patternProperties": {"^x_": {}},
       "additionalProperties": false}|}
    {|{"a": 1, "x_b": 2}|};
  check_invalid
    {|{"properties": {"a": {}}, "additionalProperties": false}|}
    {|{"a": 1, "b": 2}|};
  check_valid
    {|{"additionalProperties": {"type": "integer"}}|}
    {|{"a": 1, "b": 2}|};
  check_invalid
    {|{"additionalProperties": {"type": "integer"}}|}
    {|{"a": "x"}|};
  check_valid {|{"propertyNames": {"maxLength": 3}}|} {|{"abc": 1}|};
  check_invalid {|{"propertyNames": {"maxLength": 3}}|} {|{"abcd": 1}|}

let test_dependencies () =
  (* co-occurrence: credit_card requires billing_address *)
  let dep_req = {|{"dependencies": {"credit_card": ["billing_address"]}}|} in
  check_valid dep_req {|{"credit_card": "1234", "billing_address": "x"}|};
  check_invalid dep_req {|{"credit_card": "1234"}|};
  check_valid dep_req {|{"billing_address": "x"}|};
  check_valid dep_req "{}";
  let dep_schema =
    {|{"dependencies": {"credit_card": {"required": ["billing_address"]}}}|}
  in
  check_invalid dep_schema {|{"credit_card": "1234"}|};
  check_valid dep_schema {|{"credit_card": "1234", "billing_address": "x"}|}

let test_combinators () =
  check_valid {|{"allOf": [{"minimum": 2}, {"maximum": 5}]}|} "3";
  check_invalid {|{"allOf": [{"minimum": 2}, {"maximum": 5}]}|} "6";
  check_valid {|{"anyOf": [{"type": "string"}, {"type": "integer"}]}|} "3";
  check_invalid {|{"anyOf": [{"type": "string"}, {"type": "integer"}]}|} "3.5";
  check_valid {|{"oneOf": [{"multipleOf": 3}, {"multipleOf": 5}]}|} "9";
  check_invalid {|{"oneOf": [{"multipleOf": 3}, {"multipleOf": 5}]}|} "15";
  check_invalid {|{"oneOf": [{"multipleOf": 3}, {"multipleOf": 5}]}|} "7";
  (* negation types: the tutorial singles these out as unusually powerful *)
  check_valid {|{"not": {"type": "string"}}|} "1";
  check_invalid {|{"not": {"type": "string"}}|} {|"s"|};
  check_valid {|{"not": {"properties": {"a": {"const": 1}}, "required": ["a"]}}|}
    {|{"a": 2}|};
  check_invalid {|{"not": {"properties": {"a": {"const": 1}}, "required": ["a"]}}|}
    {|{"a": 1}|}

let test_if_then_else () =
  let s =
    {|{"if": {"properties": {"country": {"const": "US"}}, "required": ["country"]},
       "then": {"required": ["zipcode"]},
       "else": {"required": ["postal_code"]}}|}
  in
  check_valid s {|{"country": "US", "zipcode": "12345"}|};
  check_invalid s {|{"country": "US"}|};
  check_valid s {|{"country": "FR", "postal_code": "75001"}|};
  check_invalid s {|{"country": "FR"}|}

let test_ref () =
  let s =
    {|{"definitions": {"positive": {"type": "integer", "minimum": 1}},
       "properties": {"count": {"$ref": "#/definitions/positive"}}}|}
  in
  check_valid s {|{"count": 3}|};
  check_invalid s {|{"count": 0}|};
  check_invalid s {|{"count": "three"}|}

let test_recursive_ref () =
  (* a linked list of integers *)
  let s =
    {|{"definitions":
        {"list": {"type": "object",
                  "properties": {"head": {"type": "integer"},
                                 "tail": {"anyOf": [{"type": "null"},
                                                    {"$ref": "#/definitions/list"}]}},
                  "required": ["head", "tail"]}},
       "$ref": "#/definitions/list"}|}
  in
  check_valid s {|{"head": 1, "tail": {"head": 2, "tail": null}}|};
  check_invalid s {|{"head": 1, "tail": {"head": "x", "tail": null}}|};
  check_invalid s {|{"head": 1}|}

let test_cyclic_ref_terminates () =
  (* $ref loop that never consumes input must fail, not hang *)
  let s = {|{"definitions": {"a": {"$ref": "#/definitions/a"}}, "$ref": "#/definitions/a"}|} in
  check_invalid s "1"

let test_missing_ref () =
  check_invalid {|{"$ref": "#/definitions/nope"}|} "1";
  check_invalid {|{"$ref": "http://elsewhere/schema"}|} "1"

let test_formats () =
  let config = { Jsonschema.Validate.default_config with Jsonschema.Validate.assert_formats = true } in
  check_valid ~config {|{"format": "date"}|} {|"2021-02-28"|};
  check_invalid ~config {|{"format": "date"}|} {|"2021-02-30"|};
  check_valid ~config {|{"format": "date"}|} {|"2020-02-29"|};
  check_invalid ~config {|{"format": "date"}|} {|"2100-02-29"|};
  check_valid ~config {|{"format": "date-time"}|} {|"2021-04-05T10:44:00.5+02:00"|};
  check_invalid ~config {|{"format": "date-time"}|} {|"2021-04-05"|};
  check_valid ~config {|{"format": "email"}|} {|"a.b@example.com"|};
  check_invalid ~config {|{"format": "email"}|} {|"not an email"|};
  check_valid ~config {|{"format": "ipv4"}|} {|"192.168.0.255"|};
  check_invalid ~config {|{"format": "ipv4"}|} {|"192.168.0.256"|};
  check_valid ~config {|{"format": "uuid"}|} {|"123e4567-e89b-12d3-a456-426614174000"|};
  check_invalid ~config {|{"format": "uuid"}|} {|"123"|};
  check_valid ~config {|{"format": "uri"}|} {|"https://example.com/x?y=1"|};
  check_invalid ~config {|{"format": "uri"}|} {|"no scheme"|};
  check_valid ~config {|{"format": "json-pointer"}|} {|"/a/b"|};
  check_invalid ~config {|{"format": "json-pointer"}|} {|"a/b"|};
  (* unknown formats validate *)
  check_valid ~config {|{"format": "zorglub"}|} {|"anything"|};
  (* formats are annotations by default *)
  check_valid {|{"format": "date"}|} {|"2021-02-30"|}

let test_format_ipv6 () =
  let config = { Jsonschema.Validate.default_config with Jsonschema.Validate.assert_formats = true } in
  let ok s = check_valid ~config {|{"format": "ipv6"}|} (Printf.sprintf "%S" s) in
  let bad s = check_invalid ~config {|{"format": "ipv6"}|} (Printf.sprintf "%S" s) in
  ok "::";
  ok "::1";
  ok "1:2:3:4:5:6:7:8";
  ok "2001:db8::8:800:200c:417a";
  ok "fe80::";
  ok "64:ff9b::192.0.2.33";
  ok "::ffff:192.168.0.1";
  ok "1:2:3:4:5:6:192.0.2.1";
  (* the old character-class regex accepted all of these *)
  bad ":::::";
  bad "....";
  bad ":";
  bad "1:2:3:4:5:6:7";            (* too few groups, no :: *)
  bad "1:2:3:4:5:6:7:8:9";        (* too many groups *)
  bad "1:2:3:4:5:6:7:8::";        (* :: must compress at least one group *)
  bad "1::2::3";                  (* at most one :: *)
  bad "12345::";                  (* group longer than 4 digits *)
  bad "g::1";                     (* non-hex digit *)
  bad ":1:2:3:4:5:6:7:8";         (* stray leading colon *)
  bad "192.168.0.1";              (* bare IPv4 is not an IPv6 *)
  bad "1.2.3.4::";                (* IPv4 tail must be final *)
  bad "1:2:3:4:5:6:7:1.2.3.4";    (* 7 + tail = 9 groups *)
  bad "::1.2.3.456"               (* invalid dotted quad *)

let test_multiple_of_exact () =
  (* Int values take an exact integer path: the float quotient of a large
     odd Int by 2 rounds to an even mantissa and used to pass *)
  check_invalid {|{"multipleOf": 2}|} "9007199254740993";
  check_valid {|{"multipleOf": 2}|} "9007199254740992";
  check_invalid {|{"multipleOf": 3}|} "4611686018427387902";
  check_valid {|{"multipleOf": 2}|} "4611686018427387902";
  check_valid {|{"multipleOf": 7}|} "-49";
  check_invalid {|{"multipleOf": 7}|} "-50";
  (* integral divisor over a float value keeps the tolerant path *)
  check_valid {|{"multipleOf": 2}|} "8.0";
  check_invalid {|{"multipleOf": 2}|} "7.5";
  (* fractional divisors are unaffected *)
  check_valid {|{"multipleOf": 0.5}|} "3";
  check_invalid {|{"multipleOf": 0.4}|} "3"

let test_unanchored_patterns () =
  (* pattern and patternProperties are substring searches unless anchored *)
  check_valid {|{"pattern": "b+"}|} {|"abbc"|};
  check_invalid {|{"pattern": "b+"}|} {|"acd"|};
  check_valid {|{"pattern": "^b+"}|} {|"bbc"|};
  check_invalid {|{"pattern": "^b+$"}|} {|"abbc"|};
  check_invalid {|{"patternProperties": {"oo": {"type": "integer"}}}|} {|{"foo!": "s"}|};
  check_valid {|{"patternProperties": {"oo": {"type": "integer"}}}|} {|{"foo!": 1, "bar": "s"}|};
  (* an unanchored key pattern also shields matches from additionalProperties *)
  check_valid
    {|{"patternProperties": {"oo": {}}, "additionalProperties": false}|}
    {|{"foo": 1}|};
  check_invalid
    {|{"patternProperties": {"oo": {}}, "additionalProperties": false}|}
    {|{"bar": 1}|}


let test_contains_counts () =
  check_valid {|{"contains": {"type": "integer"}, "minContains": 2}|} {|[1, "x", 2]|};
  check_invalid {|{"contains": {"type": "integer"}, "minContains": 2}|} {|[1, "x"]|};
  check_valid {|{"contains": {"type": "integer"}, "maxContains": 2}|} {|[1, 2, "x"]|};
  check_invalid {|{"contains": {"type": "integer"}, "maxContains": 2}|} "[1, 2, 3]";
  (* minContains 0 makes contains vacuous *)
  check_valid {|{"contains": {"type": "integer"}, "minContains": 0}|} {|["x"]|}

let test_dependent_keywords () =
  let s = {|{"dependentRequired": {"card": ["addr"]}}|} in
  check_valid s {|{"card": 1, "addr": "x"}|};
  check_invalid s {|{"card": 1}|};
  let s2 = {|{"dependentSchemas": {"card": {"properties": {"addr": {"type": "string"}}, "required": ["addr"]}}}|} in
  check_valid s2 {|{"card": 1, "addr": "x"}|};
  check_invalid s2 {|{"card": 1, "addr": 7}|};
  check_valid s2 {|{"other": true}|}

let test_defs_alias () =
  let s =
    {|{"$defs": {"pos": {"type": "integer", "minimum": 1}},
       "properties": {"n": {"$ref": "#/$defs/pos"}}}|}
  in
  check_valid s {|{"n": 3}|};
  check_invalid s {|{"n": 0}|}

let test_error_reporting () =
  let root =
    parse
      {|{"properties": {"user": {"properties": {"age": {"type": "integer", "minimum": 0}},
                                 "required": ["age"]}}}|}
  in
  match Jsonschema.Validate.validate ~root (parse {|{"user": {"age": -3}}|}) with
  | Ok () -> Alcotest.fail "should be invalid"
  | Error [ e ] ->
      Alcotest.(check string) "instance pointer" "/user/age"
        (Json.Pointer.to_string e.Jsonschema.Validate.instance_at);
      Alcotest.(check string) "schema pointer"
        "/properties/user/properties/age/minimum"
        (Json.Pointer.to_string e.Jsonschema.Validate.schema_at)
  | Error es ->
      Alcotest.fail (Printf.sprintf "expected one error, got %d" (List.length es))

let test_multiple_errors_reported () =
  let root =
    parse {|{"properties": {"a": {"type": "integer"}, "b": {"type": "string"}},
             "required": ["c"]}|}
  in
  match Jsonschema.Validate.validate ~root (parse {|{"a": "x", "b": 1}|}) with
  | Ok () -> Alcotest.fail "should be invalid"
  | Error es -> Alcotest.(check int) "three violations" 3 (List.length es)

(* --- parsing / printing ---------------------------------------------- *)

let test_parse_errors () =
  let bad src =
    match Jsonschema.Parse.of_string src with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%s should not parse as a schema" src)
  in
  bad {|{"type": "strng"}|};
  bad {|{"type": []}|};
  bad {|{"type": 3}|};
  bad {|{"enum": []}|};
  bad {|{"minLength": -1}|};
  bad {|{"minLength": 1.5}|};
  bad {|{"multipleOf": 0}|};
  bad {|{"pattern": "["}|};
  bad {|{"patternProperties": {"[": {}}}|};
  bad {|{"allOf": []}|};
  bad {|{"required": [1]}|};
  bad "17"

let test_print_roundtrip () =
  let sources =
    [ {|{"type":"object","properties":{"a":{"type":"integer","minimum":0}},"required":["a"]}|};
      {|{"anyOf":[{"type":"string","pattern":"^x"},{"enum":[1,2]}]}|};
      {|{"items":[{"type":"integer"}],"additionalItems":false,"uniqueItems":true}|};
      {|{"not":{"const":null},"definitions":{"d":{"type":"null"}}}|};
      {|{"if":{"type":"string"},"then":{"minLength":1},"else":{"minimum":0}}|};
      {|{"dependencies":{"a":["b"],"c":{"required":["d"]}}}|};
      {|{"exclusiveMinimum":2,"exclusiveMaximum":9.5,"multipleOf":0.5}|} ]
  in
  List.iter
    (fun src ->
      let s = Jsonschema.Parse.of_string_exn src in
      let printed = Jsonschema.Print.to_json s in
      let s2 = Jsonschema.Parse.of_json_exn printed in
      let printed2 = Jsonschema.Print.to_json s2 in
      Alcotest.(check bool)
        (Printf.sprintf "parse/print fixpoint for %s" src)
        true
        (Json.Value.equal printed printed2))
    sources

let test_schema_size () =
  let s = Jsonschema.Parse.of_string_exn
      {|{"properties": {"a": {"type": "integer"}, "b": {"items": {"type": "string"}}}}|}
  in
  (* root + a + b + items-of-b = 4 *)
  Alcotest.(check int) "size" 4 (Jsonschema.Schema.size s)

(* --- well-formedness -------------------------------------------------- *)

let test_wellformed () =
  let warn_count src = List.length (Jsonschema.Wellformed.check (parse src)) in
  Alcotest.(check int) "clean schema" 0
    (warn_count {|{"type": "object", "properties": {"a": {"minimum": 0, "maximum": 10}}}|});
  Alcotest.(check bool) "inverted numeric bounds" true
    (warn_count {|{"minimum": 10, "maximum": 0}|} > 0);
  Alcotest.(check bool) "inverted length bounds" true
    (warn_count {|{"minLength": 5, "maxLength": 2}|} > 0);
  Alcotest.(check bool) "enum/type conflict" true
    (warn_count {|{"type": "string", "enum": [1, 2]}|} > 0);
  Alcotest.(check bool) "dangling ref" true
    (warn_count {|{"$ref": "#/definitions/missing"}|} > 0);
  Alcotest.(check bool) "nested warning found" true
    (warn_count {|{"properties": {"a": {"minItems": 3, "maxItems": 1}}}|} > 0);
  Alcotest.(check bool) "wellformed predicate" true
    (Jsonschema.Wellformed.is_wellformed (parse {|{"type": "integer"}|}))

(* --- generation ------------------------------------------------------- *)

let test_generate_satisfies () =
  let schemas =
    [ {|{"type": "integer", "minimum": 5, "maximum": 10}|};
      {|{"type": "string", "minLength": 3, "maxLength": 6}|};
      {|{"type": "object",
         "properties": {"id": {"type": "integer", "minimum": 0},
                        "name": {"type": "string"},
                        "tags": {"type": "array", "items": {"type": "string"}}},
         "required": ["id", "name"]}|};
      {|{"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1, "maxItems": 4}|};
      {|{"enum": [1, "two", null]}|};
      {|{"const": {"fixed": true}}|};
      {|{"anyOf": [{"type": "integer", "multipleOf": 3}, {"type": "string"}]}|};
      {|{"type": "integer", "multipleOf": 7, "minimum": 10, "maximum": 100}|} ]
  in
  let st = Jsonschema.Generate.rng ~seed:42 in
  List.iter
    (fun src ->
      let root = parse src in
      for _ = 1 to 20 do
        match Jsonschema.Generate.generate_valid st ~root with
        | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "generated %s matches %s" (Json.Printer.to_string v) src)
              true
              (Jsonschema.Validate.is_valid ~root v)
        | None -> Alcotest.fail (Printf.sprintf "could not generate for %s" src)
      done)
    schemas

let test_generate_deterministic () =
  let root = parse {|{"type": "object", "properties": {"a": {"type": "integer"}}}|} in
  let gen seed =
    let st = Jsonschema.Generate.rng ~seed in
    List.init 5 (fun _ -> Jsonschema.Generate.generate_valid st ~root)
  in
  Alcotest.(check bool) "same seed, same output" true (gen 7 = gen 7);
  Alcotest.(check bool) "diff seed, diff output (overwhelmingly)" true (gen 7 <> gen 8)

(* --- compiled plans: differential oracle ------------------------------ *)

(* The compiled engine (Compile) promises byte-identical results to the
   interpreter (Validate) — same verdicts, same error records in the same
   order. These properties throw randomized schema/instance pairs at both
   and diff the rendered error lists. *)

let render_errors = function
  | Ok () -> "valid"
  | Error es ->
      String.concat "\n" (List.map Jsonschema.Validate.string_of_error es)

let oracle_gen_value : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return Json.Value.Null;
        map (fun b -> Json.Value.Bool b) bool;
        map (fun n -> Json.Value.Int n) (int_range (-20) 20);
        map (fun f -> Json.Value.Float f) (float_range (-20.) 20.);
        map (fun s -> Json.Value.String s)
          (string_size ~gen:(char_range 'a' 'e') (int_range 0 4));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'c') (int_range 1 2) in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun vs -> Json.Value.Array vs)
                  (list_size (int_range 0 4) (self (n / 2))));
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

let oracle_gen_schema : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Json.Value in
  let type_name =
    oneofl [ "null"; "boolean"; "integer"; "number"; "string"; "array"; "object" ]
  in
  let ref_target =
    oneofl [ "#"; "#/definitions/a"; "#/definitions/missing"; "not-a-pointer" ]
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
            map (fun i -> Object [ ("maximum", Int i) ]) (int_range (-5) 5);
            map (fun i -> Object [ ("minLength", Int i) ]) (int_range 0 4);
            map (fun i -> Object [ ("minItems", Int i) ]) (int_range 0 3);
            map (fun i -> Object [ ("multipleOf", Int i) ]) (int_range 1 4);
            return (Object [ ("uniqueItems", Bool true) ]);
            return (Object [ ("format", String "ipv4") ]);
            map
              (fun vs -> Object [ ("enum", Array vs) ])
              (list_size (int_range 1 6) (map (fun i -> Int i) (int_range 0 9)));
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [ (3, leaf);
            (1,
             map2
               (fun k s ->
                 Object
                   [ ("properties", Object [ (k, s) ]);
                     ("required", Array [ String k ]) ])
               key sub);
            (1, map (fun s -> Object [ ("items", s) ]) sub);
            (1, map2 (fun a b -> Object [ ("items", Array [ a; b ]) ]) sub sub);
            (1, map (fun s -> Object [ ("contains", s) ]) sub);
            (1, map (fun s -> Object [ ("not", s) ]) sub);
            (1, map (fun ss -> Object [ ("anyOf", Array ss) ])
                  (list_size (int_range 1 3) sub));
            (1, map (fun ss -> Object [ ("allOf", Array ss) ])
                  (list_size (int_range 1 3) sub));
            (1, map (fun ss -> Object [ ("oneOf", Array ss) ])
                  (list_size (int_range 1 3) sub));
            (1, map2 (fun a b ->
                     Object [ ("if", a); ("then", b); ("else", a) ]) sub sub);
            (1, map2 (fun k s -> Object [ ("patternProperties", Object [ (k, s) ]) ])
                  key sub);
            (1, map (fun s -> Object [ ("additionalProperties", s) ]) sub);
            (1, map2 (fun k s -> Object [ ("dependencies", Object [ (k, s) ]) ])
                  key sub);
            (1,
             map2
               (fun k s ->
                 Object
                   [ ("definitions", Object [ (k, s) ]);
                     ("$ref", String ("#/definitions/" ^ k)) ])
               key sub);
          ])

(* the compiled engine's verdict: one plan, or the compiler's errors *)
let compiled_validate ?config ~root instance =
  match Jsonschema.Compile.compile root with
  | Ok plan -> Jsonschema.Compile.run ?config plan instance
  | Error es -> Error es

let differential_agrees ?(config = Jsonschema.Validate.default_config)
    (schema, instance) =
  let interp =
    render_errors (Jsonschema.Validate.validate ~config ~root:schema instance)
  in
  let compiled =
    render_errors (compiled_validate ~config ~root:schema instance)
  in
  if interp = compiled then true
  else
    QCheck2.Test.fail_reportf
      "engines diverge on schema %s / instance %s@.interpreter:@.%s@.compiled:@.%s"
      (Json.Printer.to_string schema)
      (Json.Printer.to_string instance)
      interp compiled

(* A small $ref budget keeps randomly generated no-input cycles (e.g. a
   [oneOf] of ["$ref": "#"]s) from doing branches^fuel work; both engines
   get the same config, so byte-identity is still what's being tested. *)
let oracle_config =
  { Jsonschema.Validate.default_config with max_ref_expansions = 6 }

let prop_compiled_differential =
  QCheck2.Test.make
    ~name:"compiled = interpreted: verdicts and error lists"
    ~count:500
    QCheck2.Gen.(pair oracle_gen_schema oracle_gen_value)
    (differential_agrees ~config:oracle_config)

let prop_compiled_differential_formats =
  QCheck2.Test.make
    ~name:"compiled = interpreted under assert_formats"
    ~count:200
    QCheck2.Gen.(pair oracle_gen_schema oracle_gen_value)
    (differential_agrees ~config:{ oracle_config with assert_formats = true })

let test_compiled_parallel_jobs () =
  (* The sharded pipeline path: compiled and interpreted engines must report
     the same failures (order included) at every job count. *)
  let root =
    parse
      {|{"definitions": {"item": {"type": "object",
                                  "required": ["id"],
                                  "properties": {"id": {"type": "integer", "minimum": 1},
                                                 "tag": {"type": "string", "pattern": "^[a-z]+$"}}}},
         "type": "array", "items": {"$ref": "#/definitions/item"}, "minItems": 1}|}
  in
  let docs =
    List.init 40 (fun i ->
        if i mod 3 = 0 then parse (Printf.sprintf {|[{"id": %d, "tag": "ok"}]|} (i + 1))
        else if i mod 3 = 1 then parse (Printf.sprintf {|[{"id": -%d}]|} (i + 1))
        else parse {|[{"tag": "NOPE"}]|})
  in
  let render failures =
    String.concat "\n"
      (List.map
         (fun (i, es) ->
           String.concat "\n"
             (List.map
                (fun e ->
                  Printf.sprintf "%d: %s" i (Jsonschema.Validate.string_of_error e))
                es))
         failures)
  in
  let reference =
    match Core.Pipeline.validate_collection ~compiled:false ~root docs with
    | Ok _ -> []
    | Error failures -> failures
  in
  Alcotest.(check bool) "some failures exist" true (reference <> []);
  (* the sharded tree engine: one plan shared across the shards' domains *)
  let text = Datagen.to_ndjson docs in
  let sharded jobs =
    match
      Core.Pipeline.validate_ndjson ~compiled:true ~engine:`Tree ~jobs ~root
        text
    with
    | Ok (failures, _, _) -> failures
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d compiled failures identical" jobs)
        (render reference) (render (sharded jobs)))
    [ 1; 4; 8 ]

(* --- regression pins --------------------------------------------------- *)

let test_tuple_items_error_paths () =
  (* Pin the tuple-items error pointers: position i must appear in both the
     instance pointer (/i) and the schema pointer (/items/i), and overflow
     elements must blame /additionalItems. Checked against both engines. *)
  let root =
    parse
      {|{"items": [{"type": "string"}, {"type": "integer"}],
         "additionalItems": {"type": "null"}}|}
  in
  let instance = parse {|["ok", "bad", 7]|} in
  let check_engine label result =
    match result with
    | Ok () -> Alcotest.fail (label ^ ": should be invalid")
    | Error es ->
        let pairs =
          List.map
            (fun e ->
              ( Json.Pointer.to_string e.Jsonschema.Validate.instance_at,
                Json.Pointer.to_string e.Jsonschema.Validate.schema_at ))
            es
        in
        Alcotest.(check (list (pair string string)))
          (label ^ ": tuple error pointers carry the array index")
          [ ("/1", "/items/1/type"); ("/2", "/additionalItems/type") ]
          pairs
  in
  check_engine "interpreter" (Jsonschema.Validate.validate ~root instance);
  check_engine "compiled" (compiled_validate ~root instance)

let test_wellformed_escaped_ref () =
  (* Pin ~0/~1 un-escaping on the $ref warn path: pointers through keys that
     contain "/" or "~" must resolve (no dangling-ref warning) and must
     validate identically in both engines. *)
  let src =
    {|{"definitions": {"a/b": {"type": "integer"}, "a~b": {"type": "string"}},
       "properties": {"slash": {"$ref": "#/definitions/a~1b"},
                      "tilde": {"$ref": "#/definitions/a~0b"}}}|}
  in
  let root = parse src in
  Alcotest.(check int) "escaped $refs resolve without warnings" 0
    (List.length (Jsonschema.Wellformed.check root));
  let dangling =
    parse
      {|{"definitions": {"a/b": {}}, "$ref": "#/definitions/a~0b"}|}
  in
  Alcotest.(check bool) "genuinely dangling escaped ref still warns" true
    (List.length (Jsonschema.Wellformed.check dangling) > 0);
  let inst = parse {|{"slash": 1, "tilde": "x"}|} in
  Alcotest.(check bool) "interpreter resolves escaped refs" true
    (Jsonschema.Validate.is_valid ~root inst);
  Alcotest.(check bool) "compiled resolves escaped refs" true
    (Result.is_ok (compiled_validate ~root inst));
  Alcotest.(check bool) "interpreter enforces escaped target" false
    (Jsonschema.Validate.is_valid ~root (parse {|{"slash": "no"}|}));
  Alcotest.(check bool) "compiled enforces escaped target" false
    (Result.is_ok (compiled_validate ~root (parse {|{"slash": "no"}|})))

let test_compiled_plan_stats () =
  let root =
    parse
      {|{"definitions": {"node": {"type": "object",
                                  "properties": {"next": {"$ref": "#/definitions/node"}},
                                  "additionalProperties": true}},
         "$ref": "#/definitions/node"}|}
  in
  match Jsonschema.Compile.compile root with
  | Error _ -> Alcotest.fail "schema should compile"
  | Ok plan ->
      Alcotest.(check bool) "has nodes" true (Jsonschema.Compile.nodes plan > 0);
      Alcotest.(check bool) "counts ref targets" true
        (Jsonschema.Compile.ref_targets plan >= 1);
      Alcotest.(check bool) "detects the cycle" true
        (Jsonschema.Compile.cycles plan >= 1);
      Alcotest.(check bool) "prunes trivial subschemas" true
        (Jsonschema.Compile.pruned plan >= 1)

let () =
  Alcotest.run "jsonschema"
    [ ("keywords",
       [ Alcotest.test_case "boolean schemas" `Quick test_boolean_schemas;
         Alcotest.test_case "type" `Quick test_type_keyword;
         Alcotest.test_case "enum/const" `Quick test_enum_const;
         Alcotest.test_case "numeric literal equality (both engines)" `Quick
           test_numeric_literal_equality_both_engines;
         Alcotest.test_case "numeric" `Quick test_numeric_keywords;
         Alcotest.test_case "string" `Quick test_string_keywords;
         Alcotest.test_case "array" `Quick test_array_keywords;
         Alcotest.test_case "object" `Quick test_object_keywords;
         Alcotest.test_case "dependencies" `Quick test_dependencies;
         Alcotest.test_case "combinators" `Quick test_combinators;
         Alcotest.test_case "if/then/else" `Quick test_if_then_else;
         Alcotest.test_case "min/maxContains (2019-09)" `Quick test_contains_counts;
         Alcotest.test_case "dependent keywords (2019-09)" `Quick test_dependent_keywords;
         Alcotest.test_case "$defs alias" `Quick test_defs_alias;
         Alcotest.test_case "ipv6 format" `Quick test_format_ipv6;
         Alcotest.test_case "multipleOf exact ints" `Quick test_multiple_of_exact;
         Alcotest.test_case "unanchored patterns" `Quick test_unanchored_patterns ]);
      ("refs",
       [ Alcotest.test_case "definitions" `Quick test_ref;
         Alcotest.test_case "recursive" `Quick test_recursive_ref;
         Alcotest.test_case "cyclic terminates" `Quick test_cyclic_ref_terminates;
         Alcotest.test_case "missing/remote" `Quick test_missing_ref ]);
      ("formats", [ Alcotest.test_case "all" `Quick test_formats ]);
      ("errors",
       [ Alcotest.test_case "pointers" `Quick test_error_reporting;
         Alcotest.test_case "multiple" `Quick test_multiple_errors_reported ]);
      ("parse/print",
       [ Alcotest.test_case "parse errors" `Quick test_parse_errors;
         Alcotest.test_case "roundtrip" `Quick test_print_roundtrip;
         Alcotest.test_case "size" `Quick test_schema_size ]);
      ("wellformed", [ Alcotest.test_case "checks" `Quick test_wellformed ]);
      ("generate",
       [ Alcotest.test_case "satisfies schema" `Quick test_generate_satisfies;
         Alcotest.test_case "deterministic" `Quick test_generate_deterministic ]);
      ("compiled",
       [ QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| 20250808 |])
           prop_compiled_differential;
         QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| 20250808 |])
           prop_compiled_differential_formats;
         Alcotest.test_case "parallel jobs sweep" `Quick test_compiled_parallel_jobs;
         Alcotest.test_case "plan stats" `Quick test_compiled_plan_stats ]);
      ("regressions",
       [ Alcotest.test_case "tuple items error paths" `Quick
           test_tuple_items_error_paths;
         Alcotest.test_case "escaped $ref pointers" `Quick
           test_wellformed_escaped_ref ]);
    ]
