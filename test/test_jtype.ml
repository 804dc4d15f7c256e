(* Tests for the type algebra: typing, canonical forms, kind-/label-
   parametric merging, membership, subtyping, printers, counting types. *)

open Jtype

let parse = Json.Parser.parse_exn
let ty = Alcotest.testable Types.pp Types.equal
let value' = Alcotest.testable Json.Printer.pp Json.Value.equal
let of_src src = Types.of_value (parse src)
let infer ~equiv srcs = Merge.merge_all ~equiv (List.map of_src srcs)

(* --- typing of single values ----------------------------------------- *)

let test_of_value () =
  Alcotest.check ty "null" Types.null (of_src "null");
  Alcotest.check ty "bool" Types.bool (of_src "true");
  Alcotest.check ty "int" Types.int (of_src "42");
  Alcotest.check ty "num" Types.num (of_src "4.5");
  Alcotest.check ty "str" Types.str (of_src {|"x"|});
  Alcotest.check ty "empty array" (Types.arr Types.bot) (of_src "[]");
  Alcotest.check ty "homog array" (Types.arr Types.int) (of_src "[1,2,3]");
  Alcotest.check ty "mixed array"
    (Types.arr (Types.union [ Types.int; Types.str ]))
    (of_src {|[1, "x", 2]|});
  Alcotest.check ty "record"
    (Types.rec_ [ Types.field "a" Types.int; Types.field "b" Types.str ])
    (of_src {|{"b": "x", "a": 1}|})

let test_union_canonical () =
  (* flattening, dedup, Bot identity, Any absorption, singleton collapse *)
  Alcotest.check ty "flatten"
    (Types.union [ Types.int; Types.str; Types.null ])
    (Types.union [ Types.union [ Types.int; Types.str ]; Types.null ]);
  Alcotest.check ty "dedup" Types.int (Types.union [ Types.int; Types.int ]);
  Alcotest.check ty "bot identity" Types.str (Types.union [ Types.bot; Types.str ]);
  Alcotest.check ty "any absorbs" Types.any (Types.union [ Types.int; Types.any ]);
  Alcotest.check ty "empty union" Types.bot (Types.union []);
  Alcotest.check ty "order irrelevant"
    (Types.union [ Types.int; Types.str ])
    (Types.union [ Types.str; Types.int ])

let test_rec_constructor () =
  Alcotest.check_raises "duplicate fields rejected"
    (Invalid_argument "Jtype.rec_: duplicate field \"a\"") (fun () ->
      ignore (Types.rec_ [ Types.field "a" Types.int; Types.field "a" Types.str ]))

(* --- merge: kind equivalence ------------------------------------------ *)

let test_merge_kind_scalars () =
  let m = Merge.merge ~equiv:Merge.Kind in
  Alcotest.check ty "int+int" Types.int (m Types.int Types.int);
  Alcotest.check ty "int+num" Types.num (m Types.int Types.num);
  Alcotest.check ty "int+str" (Types.union [ Types.int; Types.str ]) (m Types.int Types.str);
  Alcotest.check ty "null+bool" (Types.union [ Types.null; Types.bool ])
    (m Types.null Types.bool);
  Alcotest.check ty "any absorbs" Types.any (m Types.any Types.int)

let test_merge_kind_records () =
  (* the motivating example: optional fields appear *)
  let t = infer ~equiv:Merge.Kind [ {|{"a": 1, "b": "x"}|}; {|{"a": 2, "c": true}|} ] in
  Alcotest.check ty "fieldwise merge"
    (Types.rec_
       [ Types.field "a" Types.int;
         Types.field ~optional:true "b" Types.str;
         Types.field ~optional:true "c" Types.bool ])
    t;
  (* field type conflicts become unions inside the field *)
  let t2 = infer ~equiv:Merge.Kind [ {|{"a": 1}|}; {|{"a": "x"}|} ] in
  Alcotest.check ty "field type union"
    (Types.rec_ [ Types.field "a" (Types.union [ Types.int; Types.str ]) ])
    t2

let test_merge_kind_arrays () =
  let t = infer ~equiv:Merge.Kind [ "[1,2]"; {|["a"]|}; "[]" ] in
  Alcotest.check ty "arrays fuse elementwise"
    (Types.arr (Types.union [ Types.int; Types.str ]))
    t

let test_merge_kind_nested () =
  let t =
    infer ~equiv:Merge.Kind
      [ {|{"user": {"name": "ann", "age": 3}}|};
        {|{"user": {"name": "bob", "email": "e"}}|} ]
  in
  Alcotest.check ty "nested records"
    (Types.rec_
       [ Types.field "user"
           (Types.rec_
              [ Types.field ~optional:true "age" Types.int;
                Types.field ~optional:true "email" Types.str;
                Types.field "name" Types.str ]) ])
    t

(* --- merge: label equivalence ----------------------------------------- *)

let test_merge_label_keeps_correlation () =
  (* records with different label sets stay separate *)
  let docs = [ {|{"a": 1, "b": "x"}|}; {|{"a": 2, "c": true}|} ] in
  let t = infer ~equiv:Merge.Label docs in
  Alcotest.check ty "two branches"
    (Types.union
       [ Types.rec_ [ Types.field "a" Types.int; Types.field "b" Types.str ];
         Types.rec_ [ Types.field "a" Types.int; Types.field "c" Types.bool ] ])
    t;
  (* same labels fuse *)
  let t2 = infer ~equiv:Merge.Label [ {|{"a": 1}|}; {|{"a": "x"}|} ] in
  Alcotest.check ty "same labels fuse"
    (Types.rec_ [ Types.field "a" (Types.union [ Types.int; Types.str ]) ])
    t2

let test_label_more_precise_than_kind () =
  (* the correlation example: b occurs exactly when kind = "b" *)
  let docs =
    [ {|{"kind": "a", "a_payload": 1}|}; {|{"kind": "b", "b_payload": "x"}|} ]
  in
  let k = infer ~equiv:Merge.Kind docs in
  let l = infer ~equiv:Merge.Label docs in
  (* kind-merged type accepts a mixed object that label-merged rejects *)
  let confused = parse {|{"kind": "a", "a_payload": 1, "b_payload": "x"}|} in
  Alcotest.(check bool) "kind accepts confusion" true (Typecheck.member confused k);
  Alcotest.(check bool) "label rejects confusion" false (Typecheck.member confused l);
  (* both accept the original documents *)
  List.iter
    (fun src ->
      Alcotest.(check bool) "kind ok" true (Typecheck.member (parse src) k);
      Alcotest.(check bool) "label ok" true (Typecheck.member (parse src) l))
    docs;
  Alcotest.(check bool) "label <= kind" true (Subtype.is_sub l k)

(* --- membership / subtyping ------------------------------------------- *)

let test_member () =
  let t =
    Types.rec_
      [ Types.field "id" Types.int;
        Types.field ~optional:true "tags" (Types.arr Types.str) ]
  in
  Alcotest.(check bool) "full" true (Typecheck.member (parse {|{"id": 1, "tags": ["a"]}|}) t);
  Alcotest.(check bool) "optional absent" true (Typecheck.member (parse {|{"id": 1}|}) t);
  Alcotest.(check bool) "missing required" false (Typecheck.member (parse {|{"tags": []}|}) t);
  Alcotest.(check bool) "wrong field type" false
    (Typecheck.member (parse {|{"id": "x"}|}) t);
  Alcotest.(check bool) "closed record" false
    (Typecheck.member (parse {|{"id": 1, "extra": 2}|}) t);
  Alcotest.(check bool) "int member of num" true (Typecheck.member (parse "1") Types.num);
  Alcotest.(check bool) "float not member of int" false
    (Typecheck.member (parse "1.5") Types.int);
  Alcotest.(check bool) "anything member of any" true
    (Typecheck.member (parse {|[{"x": [1]}]|}) Types.any);
  Alcotest.(check bool) "nothing member of bot" false
    (Typecheck.member (parse "null") Types.bot)

let test_check_mismatch_location () =
  let t = Types.rec_ [ Types.field "a" (Types.arr Types.int) ] in
  match Typecheck.check (parse {|{"a": [1, "x"]}|}) t with
  | Ok () -> Alcotest.fail "should mismatch"
  | Error m ->
      Alcotest.(check string) "pointer" "/a/1" (Json.Pointer.to_string m.Typecheck.at)

let test_subtype () =
  let sub = Subtype.is_sub in
  Alcotest.(check bool) "bot <= int" true (sub Types.bot Types.int);
  Alcotest.(check bool) "int <= any" true (sub Types.int Types.any);
  Alcotest.(check bool) "int <= num" true (sub Types.int Types.num);
  Alcotest.(check bool) "num !<= int" false (sub Types.num Types.int);
  Alcotest.(check bool) "int <= int+str" true
    (sub Types.int (Types.union [ Types.int; Types.str ]));
  Alcotest.(check bool) "int+str !<= int" false
    (sub (Types.union [ Types.int; Types.str ]) Types.int);
  Alcotest.(check bool) "arr covariant" true
    (sub (Types.arr Types.int) (Types.arr Types.num));
  (* mandatory field is a subtype of optional field *)
  Alcotest.(check bool) "mandatory <= optional" true
    (sub
       (Types.rec_ [ Types.field "a" Types.int ])
       (Types.rec_ [ Types.field ~optional:true "a" Types.int ]));
  Alcotest.(check bool) "optional !<= mandatory" false
    (sub
       (Types.rec_ [ Types.field ~optional:true "a" Types.int ])
       (Types.rec_ [ Types.field "a" Types.int ]));
  (* closed records: extra fields are not allowed by the supertype *)
  Alcotest.(check bool) "wider record !<= narrower" false
    (sub
       (Types.rec_ [ Types.field "a" Types.int; Types.field "b" Types.str ])
       (Types.rec_ [ Types.field "a" Types.int ]));
  Alcotest.(check bool) "narrower <= with-optional" true
    (sub
       (Types.rec_ [ Types.field "a" Types.int ])
       (Types.rec_ [ Types.field "a" Types.int; Types.field ~optional:true "b" Types.str ]))

(* --- printers ---------------------------------------------------------- *)

let test_paper_syntax () =
  let t = infer ~equiv:Merge.Kind [ {|{"a": 1, "b": "x"}|}; {|{"a": 2}|}; "null" ] in
  Alcotest.(check string) "paper syntax" "Null + {a: Int, b?: Str}" (Types.to_string t)

let test_typescript () =
  let t =
    Types.rec_
      [ Types.field "id" Types.int;
        Types.field ~optional:true "name" Types.str;
        Types.field "tags" (Types.arr (Types.union [ Types.int; Types.str ])) ]
  in
  Alcotest.(check string) "inline"
    "{ id: number; name?: string; tags: (number | string)[] }"
    (Typescript.type_expr t);
  let decl = Typescript.declaration ~name:"tweet" t in
  Alcotest.(check bool) "interface emitted" true
    (String.length decl > 0
    &&
    let re = Re.compile (Re.str "interface Tweet {") in
    Re.execp re decl);
  (* non-identifier keys are quoted *)
  Alcotest.(check string) "quoted key"
    {|{ "strange-key": number }|}
    (Typescript.type_expr (Types.rec_ [ Types.field "strange-key" Types.int ]))

let test_typescript_nested_lifting () =
  let t =
    Types.rec_
      [ Types.field "user" (Types.rec_ [ Types.field "name" Types.str ]) ]
  in
  let decl = Typescript.declaration ~name:"post" t in
  let has s = Re.execp (Re.compile (Re.str s)) decl in
  Alcotest.(check bool) "nested interface" true (has "interface PostUser {");
  Alcotest.(check bool) "reference to it" true (has "user: PostUser;")

let test_swift () =
  let t =
    Types.rec_
      [ Types.field "id" Types.int;
        Types.field ~optional:true "bio" Types.str ]
  in
  let decl = Swift.declaration ~name:"user" t in
  let has s = Re.execp (Re.compile (Re.str s)) decl in
  Alcotest.(check bool) "struct" true (has "struct User: Codable {");
  Alcotest.(check bool) "field" true (has "let id: Int");
  Alcotest.(check bool) "optional" true (has "let bio: String?")

let test_swift_union_enum () =
  let t = Types.union [ Types.int; Types.str ] in
  let decl = Swift.declaration ~name:"value" t in
  let has s = Re.execp (Re.compile (Re.str s)) decl in
  Alcotest.(check bool) "enum" true (has "enum Value: Codable {");
  Alcotest.(check bool) "int case" true (has "case int(Int)");
  Alcotest.(check bool) "string case" true (has "case string(String)");
  Alcotest.(check bool) "decoder" true (has "init(from decoder: Decoder)");
  (* null + T folds into optionality *)
  let t2 = Types.union [ Types.null; Types.str ] in
  Alcotest.(check string) "nullable alias" "typealias Nick = String?"
    (Swift.declaration ~name:"nick" t2)

(* A union of many record branches, as label equivalence infers one per
   label set: TypeScript names them Root1, Root2, ... (the root's own name
   is reserved for [type Root = ...], and the first branch's field "1"
   lifts its record as Root11, skipping the taken Root1), and Swift
   renders each branch of the nested union once for both its case and its
   decode attempt, numbering repeated kinds ([object], [object1], ...).
   Pinned byte for byte to guard the linear rewrite of both renderers.

   Still invalid Swift, and pinned as it is (ROADMAP, carry-over "valid
   TypeScript and Swift for wide unions"): the record under field "1" is
   named [struct 1] ([let 1: 1]), and [typealias Root = Root?] sits next
   to [enum Root]. *)
let test_printers_wide_union () =
  let r = Types.rec_ and f = Types.field in
  let t =
    Types.union
      ([ r [ f "1" (r [ f "c" Types.bool ]) ];
         r [ f "k1" (Types.union [ Types.str; r [ f "d" Types.int ] ]) ];
         r [ f "k2" (Types.arr (r [ f "e" Types.null ])) ];
         r [ f "k3" Types.int; f ~optional:true "k4" Types.bool ];
         Types.null;
         Types.int ]
      @ List.init 2 (fun i -> r [ f (Printf.sprintf "x%d" i) Types.str ]))
  in
  Alcotest.(check string) "typescript"
    {|interface Root11 {
  c: boolean;
}

interface Root1 {
  "1": Root11;
}

interface RootK1 {
  d: number;
}

interface Root2 {
  k1: string | RootK1;
}

interface RootK2 {
  e: null;
}

interface Root3 {
  k2: RootK2[];
}

interface Root4 {
  k3: number;
  k4?: boolean;
}

interface Root5 {
  x0: string;
}

interface Root6 {
  x1: string;
}

type Root = null | number | Root1 | Root2 | Root3 | Root4 | Root5 | Root6;|}
    (Typescript.declaration ~name:"root" t);
  Alcotest.(check string) "swift"
    {|enum Root: Codable {
    struct RootObject: Codable {
        struct 1: Codable {
            let c: Bool
        }
        let 1: 1
    }
    struct RootObject1: Codable {
        enum K1: Codable {
            struct K1Object: Codable {
                let d: Int
            }
            case string(String)
            case object(K1Object)
            init(from decoder: Decoder) throws {
                let container = try decoder.singleValueContainer()
                if let v = try? container.decode(String.self) { self = .string(v); return }
                if let v = try? container.decode(K1Object.self) { self = .object(v); return }
                throw DecodingError.typeMismatch(
                    K1.self,
                    .init(codingPath: decoder.codingPath, debugDescription: "no case matched"))
            }
        }
        let k1: K1
    }
    struct RootObject2: Codable {
        struct K2Element: Codable {
            let e: NSNull
        }
        let k2: [K2Element]
    }
    struct RootObject3: Codable {
        let k3: Int
        let k4: Bool?
    }
    struct RootObject4: Codable {
        let x0: String
    }
    struct RootObject5: Codable {
        let x1: String
    }
    case int(Int)
    case object(RootObject)
    case object1(RootObject1)
    case object2(RootObject2)
    case object3(RootObject3)
    case object4(RootObject4)
    case object5(RootObject5)
    init(from decoder: Decoder) throws {
        let container = try decoder.singleValueContainer()
        if let v = try? container.decode(Int.self) { self = .int(v); return }
        if let v = try? container.decode(RootObject.self) { self = .object(v); return }
        if let v = try? container.decode(RootObject1.self) { self = .object1(v); return }
        if let v = try? container.decode(RootObject2.self) { self = .object2(v); return }
        if let v = try? container.decode(RootObject3.self) { self = .object3(v); return }
        if let v = try? container.decode(RootObject4.self) { self = .object4(v); return }
        if let v = try? container.decode(RootObject5.self) { self = .object5(v); return }
        throw DecodingError.typeMismatch(
            Root.self,
            .init(codingPath: decoder.codingPath, debugDescription: "no case matched"))
    }
}

typealias Root = Root?|}
    (Swift.declaration ~name:"root" t)

(* --- interop ----------------------------------------------------------- *)

let test_to_schema () =
  let t =
    Types.rec_
      [ Types.field "id" Types.int; Types.field ~optional:true "name" Types.str ]
  in
  let root = Interop.to_schema_json t in
  Alcotest.(check bool) "accepts member" true
    (Jsonschema.Validate.is_valid ~root (parse {|{"id": 1, "name": "x"}|}));
  Alcotest.(check bool) "optional omitted ok" true
    (Jsonschema.Validate.is_valid ~root (parse {|{"id": 1}|}));
  Alcotest.(check bool) "rejects missing" false
    (Jsonschema.Validate.is_valid ~root (parse {|{"name": "x"}|}));
  Alcotest.(check bool) "rejects extra (closed)" false
    (Jsonschema.Validate.is_valid ~root (parse {|{"id": 1, "zzz": 0}|}))

let test_of_schema () =
  let closed =
    {|{"type": "object",
       "properties": {"id": {"type": "integer"},
                      "vals": {"type": "array", "items": {"type": "number"}}},
       "required": ["id"], "additionalProperties": false}|}
  in
  Alcotest.(check (option ty)) "closed object"
    (Some
       (Types.rec_
          [ Types.field "id" Types.int;
            Types.field ~optional:true "vals" (Types.arr Types.num) ]))
    (Interop.of_schema (Jsonschema.Parse.of_string_exn closed));
  (* the open form accepts {"id": 1, "x": 2}, which no closed record type
     does: outside the fragment *)
  Alcotest.(check (option ty)) "open object" None
    (Interop.of_schema
       (Jsonschema.Parse.of_string_exn
          {|{"type": "object", "properties": {"id": {"type": "integer"}},
             "required": ["id"]}|}))

let test_schema_type_galois () =
  (* to_schema then of_schema loses nothing on the algebra's fragment *)
  let types =
    [ Types.int;
      Types.arr Types.str;
      Types.union [ Types.null; Types.bool ];
      Types.rec_ [ Types.field "a" Types.int; Types.field ~optional:true "b" Types.str ] ]
  in
  List.iter
    (fun t -> Alcotest.(check (option ty)) "of_schema (to_schema t) = t" (Some t)
        (Interop.of_schema (Interop.to_schema t)))
    types

(* --- counting types ---------------------------------------------------- *)

let test_counting_basic () =
  let docs = [ {|{"a": 1, "b": "x"}|}; {|{"a": 2}|}; {|{"a": 3, "b": "y"}|} ] in
  let c = Counting.infer ~equiv:Merge.Kind (List.map parse docs) in
  Alcotest.(check int) "count" 3 (Counting.count c);
  Alcotest.(check string) "printed"
    "{a(3): Int(3), b(2): Str(2)}(3)"
    (Counting.to_string c);
  (match Counting.field_probability c [ "b" ] with
   | Some p -> Alcotest.(check (float 1e-9)) "P(b)" (2.0 /. 3.0) p
   | None -> Alcotest.fail "b should occur");
  Alcotest.(check (option (float 1e-9))) "P(zzz)" None
    (Counting.field_probability c [ "zzz" ])

let test_counting_erase () =
  let docs = [ {|{"a": 1, "b": "x"}|}; {|{"a": 2}|} ] in
  let vs = List.map parse docs in
  let erased = Counting.erase (Counting.infer ~equiv:Merge.Kind vs) in
  let plain = Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value vs) in
  Alcotest.check ty "erase commutes with plain inference" plain erased

let test_counting_nested_probability () =
  let docs =
    [ {|{"user": {"name": "a", "verified": true}}|};
      {|{"user": {"name": "b"}}|};
      {|{"user": {"name": "c"}}|};
      {|{"user": {"name": "d", "verified": false}}|} ]
  in
  let c = Counting.infer ~equiv:Merge.Kind (List.map parse docs) in
  match Counting.field_probability c [ "user"; "verified" ] with
  | Some p -> Alcotest.(check (float 1e-9)) "P(user.verified)" 0.5 p
  | None -> Alcotest.fail "path should occur"


let test_counting_to_json () =
  let docs = [ {|{"a": 1}|}; {|{"a": 2, "b": "x"}|} ] in
  let c = Counting.infer ~equiv:Merge.Kind (List.map parse docs) in
  let j = Counting.to_json c in
  Alcotest.(check (option value')) "kind" (Some (Json.Value.String "record"))
    (Json.Value.member "kind" j);
  Alcotest.(check (option value')) "count" (Some (Json.Value.Int 2))
    (Json.Value.member "count" j);
  match Json.Pointer.get (Json.Pointer.parse_exn "/fields/b/occurs") j with
  | Some (Json.Value.Int 1) -> ()
  | other ->
      Alcotest.fail
        ("b occurs: "
        ^ match other with Some v -> Json.Printer.to_string v | None -> "missing")

(* A decoded journal may carry a count of 0, so the accumulator tells an
   absent class from a present one by more than a nonzero count: values
   with zero counts at a scalar, at [Any], as an array count and as a
   field's [occurs] are canonical, stay fixpoints of [merge_all], and keep
   their zeros through [add ~times]. *)
let test_counting_zero_counts () =
  let open Counting in
  let field ?(occurs = 0) fname ftype = { fname; occurs; ftype } in
  let both =
    [ CNull 0;
      CInt 0;
      CNum 0;
      CAny 0;
      CArr (0, CBot);
      CArr (0, CStr 0);
      CArr (3, CUnion [ CNull 0; CInt 2 ]);
      CRec (0, []);
      CRec (2, [ field "a" (CStr 0); field ~occurs:2 "b" (CBool 0) ]);
      CRec (1, [ field "a" (CAny 0); field "z" (CArr (0, CBot)) ]);
      CUnion [ CNull 0; CBool 0; CNum 0; CStr 0; CArr (0, CBot); CRec (0, []) ] ]
  in
  (* record branches that fuse under [Kind] and stay apart under [Label] *)
  let label_only =
    [ CUnion [ CRec (0, [ field "a" (CInt 0) ]); CRec (1, [ field "b" (CNull 0) ]) ] ]
  in
  List.iter
    (fun (equiv, cs) ->
      List.iter
        (fun c ->
          let name = Printf.sprintf "%s under %s" (to_string c) (equiv_to_string equiv) in
          Alcotest.(check bool) ("fixpoint: " ^ name) true (merge_all ~equiv [ c ] = c);
          List.iter
            (fun k ->
              let a = create () in
              add ~times:k ~equiv a c;
              Alcotest.(check bool)
                (Printf.sprintf "add ~times:%d: %s" k name)
                true
                (freeze a = Pairwise.scale k c
                && freeze a = merge_all ~equiv (List.init k (fun _ -> c))))
            [ 1; 3 ])
        cs)
    [ (Merge.Kind, both); (Merge.Label, both @ label_only) ];
  (* a zero-count class is present, so it decides the kind of the result *)
  Alcotest.(check string) "Int(0) + Num(0)" "Num(0)"
    (to_string (merge_all ~equiv:Merge.Kind [ CInt 0; CNum 0 ]));
  Alcotest.(check string) "Any(0) absorbs" "Any(2)"
    (to_string (merge_all ~equiv:Merge.Kind [ CAny 0; CStr 2 ]))

let test_counting_of_json () =
  let docs =
    [ {|{"a": 1, "b": [1, "x"]}|}; {|{"a": 2, "c": {"d": null}}|}; "[true]"; "2.5" ]
  in
  let c = Counting.infer ~equiv:Merge.Kind (List.map parse docs) in
  (match Counting.of_json (Counting.to_json c) with
   | Ok c' -> Alcotest.(check bool) "round trip" true (c = c')
   | Error e -> Alcotest.fail e);
  (* [merge] walks field lists as sorted and [erase] builds records through
     [Types.rec_], so a record whose field names are not strictly
     increasing is refused, not repaired *)
  let field name =
    ( name,
      Json.Value.Object
        [ ("occurs", Json.Value.Int 1);
          ("type", Counting.to_json (Counting.CInt 1)) ] )
  in
  let record names =
    Json.Value.Object
      [ ("kind", Json.Value.String "record");
        ("count", Json.Value.Int 1);
        ("fields", Json.Value.Object (List.map field names)) ]
  in
  (match Counting.of_json (record [ "a"; "b" ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  List.iter
    (fun (what, names) ->
      match Counting.of_json (record names) with
      | Error _ -> ()
      | Ok c -> Alcotest.failf "%s accepted as %s" what (Counting.to_string c))
    [ ("swapped fields", [ "b"; "a" ]); ("repeated field", [ "a"; "a" ]) ];
  match
    Counting.of_json
      (Json.Value.Object
         [ ("kind", Json.Value.String "array");
           ("count", Json.Value.Int 1);
           ("items", record [ "b"; "a" ]) ])
  with
  | Error _ -> ()
  | Ok c -> Alcotest.failf "nested swap accepted as %s" (Counting.to_string c)

(* --- properties -------------------------------------------------------- *)

let gen_value = QCheck2.Gen.(
  let scalar =
    oneof
      [ return Json.Value.Null;
        map (fun b -> Json.Value.Bool b) bool;
        map (fun n -> Json.Value.Int n) (int_range (-100) 100);
        map (fun f -> Json.Value.Float f) (float_range (-100.) 100.);
        map (fun s -> Json.Value.String s) (string_size ~gen:(char_range 'a' 'e') (int_range 0 3));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'd') (return 1) in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun vs -> Json.Value.Array vs) (list_size (int_range 0 3) (self (n / 2))));
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
               (list_size (int_range 0 3) (pair key (self (n / 2)))));
          ]))

let gen_equiv = QCheck2.Gen.oneofl [ Merge.Kind; Merge.Label ]

let prop_sound =
  (* soundness of inference: every input value inhabits the merged type *)
  QCheck2.Test.make ~name:"inference is sound" ~count:300
    QCheck2.Gen.(pair gen_equiv (list_size (int_range 1 8) gen_value))
    (fun (equiv, vs) ->
      let t = Merge.merge_all ~equiv (List.map Types.of_value vs) in
      List.for_all (fun v -> Typecheck.member v t) vs)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"merge commutative" ~count:300
    QCheck2.Gen.(triple gen_equiv gen_value gen_value)
    (fun (equiv, a, b) ->
      let ta = Types.of_value a and tb = Types.of_value b in
      Types.equal (Merge.merge ~equiv ta tb) (Merge.merge ~equiv tb ta))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge associative" ~count:300
    QCheck2.Gen.(pair gen_equiv (triple gen_value gen_value gen_value))
    (fun (equiv, (a, b, c)) ->
      let ta = Types.of_value a and tb = Types.of_value b and tc = Types.of_value c in
      Types.equal
        (Merge.merge ~equiv (Merge.merge ~equiv ta tb) tc)
        (Merge.merge ~equiv ta (Merge.merge ~equiv tb tc)))

let prop_merge_idempotent =
  QCheck2.Test.make ~name:"merge idempotent" ~count:300
    QCheck2.Gen.(pair gen_equiv gen_value)
    (fun (equiv, v) ->
      let t = Types.of_value v in
      Types.equal (Merge.merge ~equiv t t) (Merge.merge_all ~equiv [ t ]))

let prop_merge_upper_bound =
  QCheck2.Test.make ~name:"merge is an upper bound" ~count:300
    QCheck2.Gen.(pair gen_equiv (pair gen_value gen_value))
    (fun (equiv, (a, b)) ->
      let ta = Types.of_value a and tb = Types.of_value b in
      let m = Merge.merge ~equiv ta tb in
      Typecheck.member a m && Typecheck.member b m)

let prop_subtype_sound_on_members =
  QCheck2.Test.make ~name:"subtype respects membership" ~count:300
    QCheck2.Gen.(triple gen_value gen_value gen_value)
    (fun (v, a, b) ->
      let ta = Types.of_value a in
      let tb = Merge.merge ~equiv:Merge.Kind ta (Types.of_value b) in
      (* ta <= tb by construction...if subtype says so, members must agree *)
      (not (Subtype.is_sub ta tb))
      || (not (Typecheck.member v ta))
      || Typecheck.member v tb)

let prop_counting_erase_coherent =
  QCheck2.Test.make ~name:"counting erase = plain inference" ~count:200
    QCheck2.Gen.(pair gen_equiv (list_size (int_range 1 6) gen_value))
    (fun (equiv, vs) ->
      let erased = Counting.erase (Counting.infer ~equiv vs) in
      Types.equal erased (Merge.merge_all ~equiv (List.map Types.of_value vs))
      && String.equal (Types.to_string erased)
           (Pairwise.Seed.to_string (Pairwise.Seed.infer ~equiv vs)))

(* --- counting reduce -------------------------------------------------------

   The streaming shard fold adds a repeated document shape once, with its
   hit count as the multiplicity ([Counting.add ~times]), and reads the type
   off by erasure. These properties pin the algebra that makes that exact,
   under both equivalences, on corpora drawn with repetition from a small
   pool. *)

let pool_specials =
  let open Json.Value in
  [ Array [];
    Object [];
    Int 7;
    Float 2.5;
    Array [ Int 1; Float 2.5 ];
    (* duplicate keys: the last occurrence wins in both typings *)
    Object [ ("a", Int 1); ("a", String "x") ];
    Object [ ("a", Array []); ("b", Object []) ];
    Object
      [ ("a", Array [ Int 1; String "s"; Null; Object [ ("b", Array []) ] ]);
        ("c", Object [ ("d", Array [ Array []; Array [ Bool true ] ]) ]) ];
    Array
      [ Object [ ("a", Int 1) ];
        Object [ ("b", Float 2.0) ];
        Object [ ("a", String "x"); ("b", Null) ] ] ]

let gen_pool_corpus =
  QCheck2.Gen.(
    let* pool =
      list_size (int_range 1 5) (frequency [ (2, oneofl pool_specials); (1, gen_value) ])
    in
    list_size (int_range 1 16) (oneofl pool))

let print_corpus vs = String.concat "\n" (List.map Json.Printer.to_string vs)

(* distinct counting values with their multiplicities, in first-seen order *)
let group_counts cs =
  List.rev
    (List.fold_left
       (fun groups c ->
         if List.mem_assoc c groups then
           List.map (fun (c', k) -> if c' = c then (c', k + 1) else (c', k)) groups
         else (c, 1) :: groups)
       [] cs)

let grouped_fold ~equiv cs =
  let a = Counting.create () in
  List.iter (fun (c, k) -> Counting.add ~times:k ~equiv a c) (group_counts cs);
  Counting.freeze a

let both_equivs f = List.for_all f [ Merge.Kind; Merge.Label ]

let prop_counting_scale =
  QCheck2.Test.make ~name:"counting scale k = k-fold merge" ~count:1000
    ~print:(fun (vs, k) -> Printf.sprintf "k=%d\n%s" k (print_corpus vs))
    QCheck2.Gen.(pair gen_pool_corpus (int_range 1 6))
    (fun (vs, k) ->
      both_equivs (fun equiv ->
          let c = Counting.infer ~equiv vs in
          let a = Counting.create () in
          Counting.add ~times:k ~equiv a c;
          let added = Counting.freeze a in
          added = Counting.merge_all ~equiv (List.init k (fun _ -> c))
          && added = Pairwise.scale k c))

let prop_counting_grouped_fold =
  QCheck2.Test.make ~name:"counting grouped scaled fold = plain fold" ~count:1000
    ~print:print_corpus gen_pool_corpus
    (fun vs ->
      both_equivs (fun equiv ->
          let cs = List.map (Counting.of_value ~equiv) vs in
          let g = grouped_fold ~equiv cs in
          g = Counting.merge_all ~equiv cs && g = Counting.merge_all ~equiv (List.rev cs)))

let prop_counting_grouped_erase =
  QCheck2.Test.make ~name:"counting grouped fold erases to types" ~count:1000
    ~print:print_corpus gen_pool_corpus
    (fun vs ->
      both_equivs (fun equiv ->
          Types.equal
            (Counting.erase (grouped_fold ~equiv (List.map (Counting.of_value ~equiv) vs)))
            (Merge.merge_all ~equiv (List.map Types.of_value vs))))

(* The tree engine at [--jobs > 1] and the merge of supervised shard
   partials both fold each chunk of the corpus on its own and merge the
   chunk folds: that must be the fold of the whole corpus, and erase to the
   [Types] fold. *)
let gen_chunked_corpus =
  QCheck2.Gen.(
    let* vs = gen_pool_corpus in
    let+ cuts = list_repeat (List.length vs) bool in
    (* a chunk starts at the first value and at every value cut before *)
    List.rev_map List.rev
      (List.fold_left2
         (fun chunks v cut ->
           match chunks with
           | chunk :: rest when not cut -> (v :: chunk) :: rest
           | _ -> [ v ] :: chunks)
         [] vs cuts))

let prop_counting_chunked_merge =
  QCheck2.Test.make ~name:"counting merge of chunk folds = whole fold"
    ~count:1000
    ~print:(fun chunks -> String.concat "\n--\n" (List.map print_corpus chunks))
    gen_chunked_corpus
    (fun chunks ->
      let vs = List.concat chunks in
      both_equivs (fun equiv ->
          let merged =
            Counting.merge_all ~equiv (List.map (Counting.infer ~equiv) chunks)
          in
          merged = Counting.infer ~equiv vs
          && Types.equal (Counting.erase merged)
               (Merge.merge_all ~equiv (List.map Types.of_value vs))))

let prop_counting_total =
  QCheck2.Test.make ~name:"counting count = #values" ~count:200
    QCheck2.Gen.(pair gen_equiv (list_size (int_range 0 10) gen_value))
    (fun (equiv, vs) ->
      Counting.count (Counting.merge_all ~equiv (List.map (Counting.of_value ~equiv) vs))
      = List.length vs)

(* --- the n-ary fold against the pairwise one ------------------------------

   [merge_all] folds with an indexed accumulator: one slot per fusion
   class, record branches keyed by label set under [Label]. The paper's
   binary [merge], folded left to right and right to left, is its
   reference, on documents, on counting values documents do not type to,
   and on corpora with hundreds of label sets. *)

let folds_agree ~equiv cs =
  let m = Counting.merge_all ~equiv cs in
  m = Pairwise.fold ~equiv cs && m = Pairwise.fold ~equiv (List.rev cs)

let prop_fold_documents =
  QCheck2.Test.make ~name:"merge_all = pairwise fold (documents)" ~count:500
    ~print:print_corpus
    QCheck2.Gen.(list_size (int_range 0 12) gen_value)
    (fun vs ->
      both_equivs (fun equiv ->
          List.for_all
            (fun v -> Counting.of_value ~equiv v = Pairwise.of_value ~equiv v)
            vs
          && folds_agree ~equiv (List.map (Counting.of_value ~equiv) vs)))

(* Canonical counting values under [equiv]: [CAny], [CBot] element types
   (empty arrays), [Int]/[Num] unions, counts of 0 (a decoded journal may
   carry one) and multiplicities through [Pairwise.scale]. Unions are
   built by [merge], so each value is one a fold can meet. *)
let gen_counting equiv =
  QCheck2.Gen.(
    let n = int_range 0 3 in
    let leaf =
      oneof
        [ map (fun n -> Counting.CNull n) n;
          map (fun n -> Counting.CBool n) n;
          map (fun n -> Counting.CInt n) n;
          map (fun n -> Counting.CNum n) n;
          map (fun n -> Counting.CStr n) n;
          map (fun n -> Counting.CAny n) n ]
    in
    sized_size (int_range 0 8) @@ fix (fun self size ->
        if size <= 0 then leaf
        else
          let sub = self (size / 2) in
          frequency
            [ (3, leaf);
              (1, map2 (fun n elem -> Counting.CArr (n, elem)) n
                    (frequency [ (1, return Counting.CBot); (2, sub) ]));
              (1,
               map2
                 (fun n fields ->
                   Counting.CRec
                     ( n,
                       List.map
                         (fun (fname, (occurs, ftype)) -> { Counting.fname; occurs; ftype })
                         (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) fields) ))
                 n
                 (list_size (int_range 0 3) (pair (oneofl [ "a"; "b"; "c" ]) (pair n sub))));
              (1, map (Pairwise.fold ~equiv) (list_size (int_range 2 3) sub));
              (1, map2 Pairwise.scale (int_range 1 4) sub) ]))

let prop_fold_counting_values =
  QCheck2.Test.make ~name:"merge_all = pairwise fold (counting values)" ~count:500
    ~print:(fun (equiv, cs) ->
      Merge.equiv_to_string equiv ^ "\n"
      ^ String.concat "\n" (List.map Counting.to_string cs))
    QCheck2.Gen.(
      let* equiv = gen_equiv in
      pair (return equiv) (list_size (int_range 0 8) (gen_counting equiv)))
    (fun (equiv, cs) ->
      (* canonical values are the fold's fixpoints, which checkpoint
         resume relies on *)
      List.for_all (fun c -> Counting.merge_all ~equiv [ c ] = c) cs
      && folds_agree ~equiv cs)

(* Hundreds of label sets over 18 keys; about half the documents are 11 to
   18 keys wide and share the same first ten, which a list hash that stops
   after ten elements would chain in one bucket. *)
let gen_label_corpus =
  QCheck2.Gen.(
    let keys = List.init 18 (Printf.sprintf "k%02d") in
    let value =
      oneofl
        Json.Value.
          [ Int 1; Float 2.5; String "s"; Null; Array [ Int 1; String "t" ];
            Object [ ("x", Int 1) ] ]
    in
    let doc =
      let* wide = bool in
      let* forced = int_range 10 17 in
      let* picks = list_repeat 18 bool in
      let chosen =
        List.filteri
          (fun i _ -> List.nth picks i || (wide && (i < 10 || i = forced)))
          keys
      in
      let+ values = list_repeat (List.length chosen) value in
      Json.Value.Object (List.combine chosen values)
    in
    list_size (int_range 200 300) doc)

let prop_fold_label_sets =
  QCheck2.Test.make ~name:"merge_all = pairwise fold (hundreds of label sets)"
    ~count:4 ~print:print_corpus gen_label_corpus
    (fun vs ->
      both_equivs (fun equiv ->
          folds_agree ~equiv (List.map (Counting.of_value ~equiv) vs)))

let prop_to_schema_sound =
  QCheck2.Test.make ~name:"to_schema accepts the values" ~count:200
    QCheck2.Gen.(list_size (int_range 1 6) gen_value)
    (fun vs ->
      let t = Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value vs) in
      let root = Interop.to_schema_json t in
      List.for_all (fun v -> Jsonschema.Validate.is_valid ~root v) vs)


(* --- of_schema: the exact translation -------------------------------------

   [Contain] and [jsontool compat] decide a schema through [Subtype] exactly
   when [Interop.of_schema] translates it, so the translation must agree
   with both engines on every value. [integer] reads numbers by value and
   [Int] by how they are written, so the values include integral floats,
   and a value's type is read with those floats as integers. *)

let rec integral_as_int (v : Json.Value.t) : Json.Value.t =
  match v with
  | Json.Value.Float f when Float.is_integer f -> Json.Value.Int (int_of_float f)
  | Json.Value.Array vs -> Json.Value.Array (List.map integral_as_int vs)
  | Json.Value.Object kvs ->
      Json.Value.Object (List.map (fun (k, x) -> (k, integral_as_int x)) kvs)
  | v -> v

let rec ints_as_floats (v : Json.Value.t) : Json.Value.t =
  match v with
  | Json.Value.Int n -> Json.Value.Float (float_of_int n)
  | Json.Value.Array vs -> Json.Value.Array (List.map ints_as_floats vs)
  | Json.Value.Object kvs ->
      Json.Value.Object (List.map (fun (k, x) -> (k, ints_as_floats x)) kvs)
  | v -> v

let gen_fragment_case =
  QCheck2.Gen.(
    pair gen_equiv
      (pair (list_size (int_range 1 5) gen_value) (list_size (int_range 0 5) gen_value)))

let prop_of_schema_exact =
  QCheck2.Test.make ~name:"of_schema: member = both engines" ~count:300
    gen_fragment_case
    (fun (equiv, (vs, others)) ->
      let root =
        Interop.to_schema_json (Merge.merge_all ~equiv (List.map Types.of_value vs))
      in
      match
        (Interop.of_schema (Jsonschema.Parse.of_json_exn root), Jsonschema.Compile.compile root)
      with
      | Some t, Ok plan ->
          List.for_all
            (fun v ->
              let valid = Jsonschema.Validate.is_valid ~root v in
              valid = Jsonschema.Compile.is_valid plan v
              && valid = Typecheck.member (integral_as_int v) t
              && ((not (Typecheck.member v t)) || valid))
            (vs @ others @ List.map ints_as_floats (vs @ others))
      | None, _ | _, Error _ -> false)

(* One edit that takes a [to_schema] document out of the fragment, at the
   [nth] schema node it applies to (pre-order through [items], [properties]
   and [anyOf]); [None] when fewer nodes qualify. *)
let edit_node ~nth edit root =
  let k = ref nth in
  let rec node (v : Json.Value.t) =
    match v with
    | Json.Value.Object kvs -> (
        match edit kvs with
        | Some kvs' when !k = 0 ->
            decr k;
            Json.Value.Object kvs'
        | Some _ ->
            decr k;
            Json.Value.Object (children kvs)
        | None -> Json.Value.Object (children kvs))
    | v -> v
  and children kvs =
    List.map
      (fun (key, x) ->
        match (key, x) with
        | "items", _ -> (key, node x)
        | "properties", Json.Value.Object ps ->
            (key, Json.Value.Object (List.map (fun (p, sub) -> (p, node sub)) ps))
        | "anyOf", Json.Value.Array bs -> (key, Json.Value.Array (List.map node bs))
        | _ -> (key, x))
      kvs
  in
  let edited = node root in
  if !k < 0 then Some edited else None

let gen_edit =
  let open Json.Value in
  QCheck2.Gen.oneofl
    [ (* one value keyword *)
      (fun kvs -> Some (kvs @ [ ("minimum", Int 0) ]));
      (fun kvs -> Some (kvs @ [ ("multipleOf", Int 2) ]));
      (fun kvs -> Some (kvs @ [ ("maxLength", Int 3) ]));
      (fun kvs -> Some (kvs @ [ ("pattern", String "a") ]));
      (fun kvs -> Some (kvs @ [ ("enum", Array [ Int 1; String "a" ]) ]));
      (fun kvs -> Some (kvs @ [ ("const", Int 1) ]));
      (fun kvs -> Some (kvs @ [ ("minItems", Int 1) ]));
      (fun kvs -> Some (kvs @ [ ("uniqueItems", Bool true) ]));
      (fun kvs -> Some (kvs @ [ ("minProperties", Int 1) ]));
      (* an open object *)
      (fun kvs ->
        if List.mem_assoc "additionalProperties" kvs then
          Some (List.remove_assoc "additionalProperties" kvs)
        else None);
      (* a multi-kind type list *)
      (fun kvs ->
        match List.assoc_opt "type" kvs with
        | Some (String k) ->
            let other = if k = "null" then "string" else "null" in
            Some
              (List.map
                 (fun (key, x) ->
                   if key = "type" then (key, Array [ String k; String other ]) else (key, x))
                 kvs)
        | _ -> None) ]

let prop_of_schema_refuses =
  QCheck2.Test.make ~name:"of_schema: None outside the fragment" ~count:300
    QCheck2.Gen.(triple gen_fragment_case gen_edit (int_range 0 3))
    (fun ((equiv, (vs, _)), edit, nth) ->
      let root =
        Interop.to_schema_json (Merge.merge_all ~equiv (List.map Types.of_value vs))
      in
      match edit_node ~nth edit root with
      | None -> true (* fewer than nth + 1 nodes this edit applies to *)
      | Some edited -> Interop.of_schema (Jsonschema.Parse.of_json_exn edited) = None)

(* --- containment: schema against schema -------------------------------- *)

let test_containment_included () =
  let s = Json.Parser.parse_exn in
  let check a b = Contain.check_schema ~sub:(s a) (s b) in
  (match check {|{"type": "integer"}|} {|{"type": "number"}|} with
   | Contain.Contained -> ()
   | v -> Alcotest.fail ("int <= num: " ^ Contain.verdict_to_string v));
  (match check {|{"type": "integer"}|} {|{"anyOf": [{"type": "integer"}, {"type": "string"}]}|} with
   | Contain.Contained -> ()
   | v -> Alcotest.fail ("int <= int|str: " ^ Contain.verdict_to_string v));
  (* a record with a mandatory field is included in one where it is optional *)
  match
    check
      {|{"type": "object", "properties": {"a": {"type": "integer"}},
         "required": ["a"], "additionalProperties": false}|}
      {|{"type": "object", "properties": {"a": {"type": "integer"}},
         "additionalProperties": false}|}
  with
  | Contain.Contained -> ()
  | v -> Alcotest.fail ("record width: " ^ Contain.verdict_to_string v)

let test_containment_refuted () =
  let s = Json.Parser.parse_exn in
  (match Contain.check_schema ~sub:(s {|{"type": "number"}|}) (s {|{"type": "integer"}|}) with
   | Contain.Not_contained cex ->
       (* the counterexample really does separate the schemas *)
       Alcotest.(check bool) "cex valid for sub" true
         (Jsonschema.Validate.is_valid ~root:(s {|{"type": "number"}|}) cex);
       Alcotest.(check bool) "cex invalid for super" false
         (Jsonschema.Validate.is_valid ~root:(s {|{"type": "integer"}|}) cex)
   | v -> Alcotest.fail ("num !<= int: " ^ Contain.verdict_to_string v));
  (* refutation works outside the structural fragment too *)
  match
    Contain.check_schema
      ~sub:(s {|{"type": "integer", "minimum": 0, "maximum": 100}|})
      (s {|{"type": "integer", "minimum": 50}|})
  with
  | Contain.Not_contained _ -> ()
  | v -> Alcotest.fail ("bounds: " ^ Contain.verdict_to_string v)

let test_containment_unknown_outside_fragment () =
  let s = Json.Parser.parse_exn in
  (* true containment but with keywords outside the fragment: Unknown, not
     a wrong answer *)
  match
    Contain.check_schema
      ~sub:(s {|{"type": "integer", "minimum": 5}|})
      (s {|{"type": "integer", "minimum": 0}|})
  with
  | Contain.Unknown _ | Contain.Contained -> ()
  | Contain.Not_contained cex ->
      Alcotest.fail
        ("must not produce a false counterexample: " ^ Json.Printer.to_string cex)

let test_containment_equivalent () =
  let s = Json.Parser.parse_exn in
  let a = s {|{"anyOf": [{"type": "integer"}, {"type": "string"}]}|}
  and b = s {|{"anyOf": [{"type": "string"}, {"type": "integer"}]}|} in
  List.iter
    (fun (sub, super) ->
      match Contain.check_schema ~sub super with
      | Contain.Contained -> ()
      | v -> Alcotest.fail ("union order: " ^ Contain.verdict_to_string v))
    [ (a, b); (b, a) ]

(* property: check_schema never returns a wrong Contained on the fragment,
   tested by sampling sub instances and validating against super *)
let prop_containment_included_is_sound =
  QCheck2.Test.make ~name:"Included implies instance-level inclusion" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 1 5) gen_value) (list_size (int_range 1 5) gen_value))
    (fun (va, vb) ->
      (* build two fragment schemas from inferred types *)
      let ta = Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value va) in
      let tb = Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value (va @ vb)) in
      let sa = Interop.to_schema_json ta and sb = Interop.to_schema_json tb in
      match Contain.check_schema ~sub:sa sb with
      | Contain.Contained ->
          (* every sampled instance of sa must satisfy sb *)
          let st = Jsonschema.Generate.rng ~seed:7 in
          List.for_all
            (fun _ ->
              match Jsonschema.Generate.generate_valid st ~root:sa with
              | Some v -> Jsonschema.Validate.is_valid ~root:sb v
              | None -> true)
            (List.init 20 Fun.id)
      | Contain.Not_contained cex ->
          Jsonschema.Validate.is_valid ~root:sa cex
          && not (Jsonschema.Validate.is_valid ~root:sb cex)
      | Contain.Unknown _ -> true)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "jtype"
    [ ("typing",
       [ Alcotest.test_case "of_value" `Quick test_of_value;
         Alcotest.test_case "union canonical form" `Quick test_union_canonical;
         Alcotest.test_case "rec_ validation" `Quick test_rec_constructor ]);
      ("merge-kind",
       [ Alcotest.test_case "scalars" `Quick test_merge_kind_scalars;
         Alcotest.test_case "records" `Quick test_merge_kind_records;
         Alcotest.test_case "arrays" `Quick test_merge_kind_arrays;
         Alcotest.test_case "nested" `Quick test_merge_kind_nested ]);
      ("merge-label",
       [ Alcotest.test_case "correlation kept" `Quick test_merge_label_keeps_correlation;
         Alcotest.test_case "precision vs kind" `Quick test_label_more_precise_than_kind ]);
      ("typecheck",
       [ Alcotest.test_case "member" `Quick test_member;
         Alcotest.test_case "mismatch location" `Quick test_check_mismatch_location;
         Alcotest.test_case "subtype" `Quick test_subtype ]);
      ("printers",
       [ Alcotest.test_case "paper syntax" `Quick test_paper_syntax;
         Alcotest.test_case "typescript" `Quick test_typescript;
         Alcotest.test_case "typescript lifting" `Quick test_typescript_nested_lifting;
         Alcotest.test_case "swift struct" `Quick test_swift;
         Alcotest.test_case "swift union enum" `Quick test_swift_union_enum;
         Alcotest.test_case "wide union" `Quick test_printers_wide_union ]);
      ("interop",
       [ Alcotest.test_case "to_schema" `Quick test_to_schema;
         Alcotest.test_case "of_schema" `Quick test_of_schema;
         Alcotest.test_case "galois roundtrip" `Quick test_schema_type_galois ]);
      ("containment",
       [ Alcotest.test_case "included" `Quick test_containment_included;
         Alcotest.test_case "refuted" `Quick test_containment_refuted;
         Alcotest.test_case "unknown outside fragment" `Quick test_containment_unknown_outside_fragment;
         Alcotest.test_case "equivalence" `Quick test_containment_equivalent ]);
      ("counting",
       [ Alcotest.test_case "basics" `Quick test_counting_basic;
         Alcotest.test_case "erase" `Quick test_counting_erase;
         Alcotest.test_case "nested probability" `Quick test_counting_nested_probability;
         Alcotest.test_case "to_json" `Quick test_counting_to_json;
         Alcotest.test_case "of_json" `Quick test_counting_of_json;
         Alcotest.test_case "zero counts" `Quick test_counting_zero_counts ]);
      ("properties",
       q [ prop_sound; prop_merge_commutative; prop_merge_associative;
           prop_merge_idempotent; prop_merge_upper_bound;
           prop_subtype_sound_on_members; prop_counting_erase_coherent;
           prop_counting_scale; prop_counting_grouped_fold;
           prop_counting_grouped_erase; prop_counting_chunked_merge;
           prop_counting_total; prop_fold_documents;
           prop_fold_counting_values; prop_fold_label_sets; prop_to_schema_sound;
           prop_of_schema_exact; prop_of_schema_refuses;
           prop_containment_included_is_sound ]);
    ]
