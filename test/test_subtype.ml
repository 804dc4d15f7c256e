(* Soundness and termination suite for the subtype/containment engine.

   Two random oracles anchor everything:

   - value-level: a value [v] has type [of_value v] by construction, so
     [Subtype.check (of_value v) b = Sub] must imply [Typecheck.member v b]
     — soundness of Sub without ever trusting the checker's own witness
     machinery.
   - engine-level: a [Contain.Not_contained w] verdict must name a value
     of the type that BOTH real validation engines reject, and a
     [Contained] verdict must mean every corpus value validates — the
     acceptance property of the PR, checked against Validate and Compile
     rather than against the checker itself.

   The conformance/containment/*.json corpus pins hand-written cases
   (type or sub-schema, schema, expected verdict, witness validity)
   through the same oracle. *)

open Jtype
module V = Json.Value

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- generators -------------------------------------------------------- *)

(* Field names from a tiny pool so random record types overlap — subtyping
   between records with disjoint fields is trivially refuted and tests
   nothing. *)
let gen_type : Types.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let scalar =
      oneofl [ Types.null; Types.bool; Types.int; Types.num; Types.str ]
    in
    let leaf =
      frequency [ (8, scalar); (1, return Types.bot); (1, return Types.any) ]
    in
    let key = string_size ~gen:(char_range 'a' 'd') (return 1) in
    sized @@ fix (fun self n ->
        if n <= 0 then leaf
        else
          frequency
            [ (3, leaf);
              (2, map Types.arr (self (n / 2)));
              (2,
               map
                 (fun fields ->
                   let seen = Hashtbl.create 4 in
                   Types.rec_
                     (List.filter
                        (fun (f : Types.field) ->
                          if Hashtbl.mem seen f.Types.fname then false
                          else begin
                            Hashtbl.add seen f.Types.fname ();
                            true
                          end)
                        fields))
                 (list_size (int_range 0 3)
                    (map2
                       (fun (k, opt) t -> Types.field ~optional:opt k t)
                       (pair key bool) (self (n / 2)))));
              (2, map Types.union (list_size (int_range 2 4) (self (n / 2))));
            ]))

let gen_value = QCheck2.Gen.(
  let scalar =
    oneof
      [ return V.Null;
        map (fun b -> V.Bool b) bool;
        map (fun n -> V.Int n) (int_range (-100) 100);
        map (fun f -> V.Float f) (float_range (-100.) 100.);
        map (fun s -> V.String s) (string_size ~gen:(char_range 'a' 'e') (int_range 0 3));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'd') (return 1) in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun vs -> V.Array vs) (list_size (int_range 0 3) (self (n / 2))));
            (1,
             map
               (fun fields ->
                 let seen = Hashtbl.create 4 in
                 V.Object
                   (List.filter
                      (fun (k, _) ->
                        if Hashtbl.mem seen k then false
                        else (Hashtbl.add seen k (); true))
                      fields))
               (list_size (int_range 0 3) (pair key (self (n / 2)))));
          ]))

(* --- QCheck properties -------------------------------------------------- *)

let prop_reflexive =
  QCheck2.Test.make ~name:"subtype: reflexivity" ~count:500 gen_type (fun t ->
      Subtype.check t t = Subtype.Sub)

let prop_witness_sound =
  QCheck2.Test.make ~name:"subtype: witness is in a, not in b" ~count:1000
    QCheck2.Gen.(pair gen_type gen_type)
    (fun (a, b) ->
      match Subtype.check a b with
      | Subtype.Not_sub w -> Typecheck.member w a && not (Typecheck.member w b)
      | Subtype.Sub | Subtype.Unknown _ -> true)

let prop_sub_sound_on_values =
  QCheck2.Test.make ~name:"subtype: Sub implies membership transfers"
    ~count:1000
    QCheck2.Gen.(pair gen_value gen_type)
    (fun (v, b) ->
      let a = Types.of_value v in
      match Subtype.check a b with
      | Subtype.Sub -> Typecheck.member v b
      | Subtype.Not_sub _ | Subtype.Unknown _ -> true)

let prop_at_least_syntactic =
  (* the syntactic approximation (once Typecheck.subtype, now the tests'
     Pairwise.Syntactic) is sound, so everything it proves the witness
     engine must also prove — it can only be more complete *)
  QCheck2.Test.make ~name:"subtype: refines Typecheck.subtype" ~count:1000
    QCheck2.Gen.(pair gen_type gen_type)
    (fun (a, b) ->
      (not (Pairwise.Syntactic.subtype a b)) || Subtype.check a b = Subtype.Sub)

let prop_union_monotone =
  QCheck2.Test.make ~name:"subtype: t ≤ t ∪ u" ~count:500
    QCheck2.Gen.(pair gen_type gen_type)
    (fun (t, u) -> Subtype.check t (Types.union [ t; u ]) = Subtype.Sub)

(* engine-level containment oracle *)
let prop_contain_oracle =
  QCheck2.Test.make ~name:"contain: witness rejected by both engines"
    ~count:400
    QCheck2.Gen.(pair (list_size (int_range 1 6) gen_value) gen_type)
    (fun (corpus, shape) ->
      let t =
        Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value corpus)
      in
      let root = Interop.to_schema_json shape in
      match Contain.check ~root t with
      | Contain.Contained ->
          (* every corpus value has type t, so all must validate *)
          List.for_all (fun v -> Jsonschema.Validate.is_valid ~root v) corpus
      | Contain.Not_contained w ->
          Typecheck.member w t
          && (not (Jsonschema.Validate.is_valid ~root w))
          && (match Jsonschema.Compile.compile root with
             | Ok plan -> not (Jsonschema.Compile.is_valid plan w)
             | Error _ -> false)
      | Contain.Unknown _ -> true)

let prop_contain_self =
  QCheck2.Test.make ~name:"contain: type contained in its own translation"
    ~count:400
    QCheck2.Gen.(list_size (int_range 1 6) gen_value)
    (fun corpus ->
      let t =
        Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value corpus)
      in
      match Contain.check ~root:(Interop.to_schema_json t) t with
      | Contain.Contained -> true
      | Contain.Not_contained _ -> false (* would be outright unsound *)
      | Contain.Unknown _ -> true (* conservative is allowed, wrong is not *))

(* --- unit pins ---------------------------------------------------------- *)

let verdict_kind = function
  | Subtype.Sub -> "sub"
  | Subtype.Not_sub _ -> "not_sub"
  | Subtype.Unknown _ -> "unknown"

let check_kind = Alcotest.(check string)

let test_scalars () =
  check_kind "int ≤ num" "sub" (verdict_kind (Subtype.check Types.int Types.num));
  check_kind "num ≰ int" "not_sub" (verdict_kind (Subtype.check Types.num Types.int));
  check_kind "int ≤ int+str" "sub"
    (verdict_kind (Subtype.check Types.int (Types.union [ Types.int; Types.str ])));
  check_kind "bot ≤ anything" "sub" (verdict_kind (Subtype.check Types.bot Types.null));
  check_kind "null ≰ bot" "not_sub" (verdict_kind (Subtype.check Types.null Types.bot));
  check_kind "any absorbs" "sub" (verdict_kind (Subtype.check Types.str Types.any));
  check_kind "any ≰ str" "not_sub" (verdict_kind (Subtype.check Types.any Types.str))

let test_records () =
  let r fields = Types.rec_ fields in
  let f = Types.field in
  (* width: extra mandatory field breaks closed-record subtyping *)
  check_kind "extra mandatory field" "not_sub"
    (verdict_kind
       (Subtype.check (r [ f "a" Types.int; f "b" Types.str ]) (r [ f "a" Types.int ])));
  (* depth *)
  check_kind "field depth" "sub"
    (verdict_kind (Subtype.check (r [ f "a" Types.int ]) (r [ f "a" Types.num ])));
  (* optional supertype field admits both presence and absence *)
  check_kind "mandatory ≤ optional" "sub"
    (verdict_kind
       (Subtype.check (r [ f "a" Types.int ]) (r [ f ~optional:true "a" Types.int ])));
  check_kind "optional ≰ mandatory" "not_sub"
    (verdict_kind
       (Subtype.check (r [ f ~optional:true "a" Types.int ]) (r [ f "a" Types.int ])));
  (* uninhabited mandatory field: the type is empty, vacuously below all *)
  check_kind "uninhabited record" "sub"
    (verdict_kind (Subtype.check (r [ f "a" Types.bot ]) Types.str))

let test_union_distribution () =
  let r fields = Types.rec_ fields in
  let f = Types.field in
  (* {a: Int+Str} vs {a:Int} ∪ {a:Str}: semantically contained, but only
     by distributing the union over the record — outside the fragment *)
  let sub = r [ f "a" (Types.union [ Types.int; Types.str ]) ] in
  let super =
    Types.union [ r [ f "a" Types.int ]; r [ f "a" Types.str ] ]
  in
  check_kind "distribution is Unknown, never Not_sub" "unknown"
    (verdict_kind (Subtype.check sub super));
  (* a genuine counter-example variant of the same shape *)
  let sub2 =
    r [ f "a" (Types.union [ Types.int; Types.str ]); f "b" Types.int ]
  in
  let super2 =
    Types.union
      [ r [ f "a" Types.int; f "b" Types.int ]; r [ f "a" Types.str ] ]
  in
  match Subtype.check sub2 super2 with
  | Subtype.Not_sub w ->
      Alcotest.(check bool) "witness in sub2" true (Typecheck.member w sub2);
      Alcotest.(check bool) "witness not in super2" false (Typecheck.member w super2)
  | v -> Alcotest.failf "expected a witness, got %s" (Subtype.verdict_to_string v)

let test_wide_and_deep_termination () =
  (* wide: a union of 60 distinct record types, checked against a widened
     copy of itself — repeat queries must hit the memo, not recompute *)
  let mk i =
    Types.rec_
      [ Types.field "tag" Types.int;
        Types.field (Printf.sprintf "f%02d" i) Types.str ]
  in
  let wide = Types.union (List.init 60 mk) in
  check_kind "wide union reflexive" "sub" (verdict_kind (Subtype.check wide wide));
  (* deep: nested arrays/records, Int widened to Num at the bottom *)
  let rec deep n t = if n = 0 then t else deep (n - 1) (Types.arr (Types.rec_ [ Types.field "x" t ])) in
  check_kind "deep nesting Int ≤ Num" "sub"
    (verdict_kind (Subtype.check (deep 40 Types.int) (deep 40 Types.num)));
  match Subtype.check (deep 40 Types.num) (deep 40 Types.int) with
  | Subtype.Not_sub w ->
      Alcotest.(check bool) "deep witness checks out" true
        (Typecheck.member w (deep 40 Types.num)
        && not (Typecheck.member w (deep 40 Types.int)))
  | v -> Alcotest.failf "expected a witness, got %s" (Subtype.verdict_to_string v)

let test_contain_basics () =
  let parse s = Result.get_ok (Json.Parser.parse s) in
  let kind = function
    | Contain.Contained -> "contained"
    | Contain.Not_contained _ -> "not_contained"
    | Contain.Unknown _ -> "unknown"
  in
  let t = Types.rec_ [ Types.field "a" Types.int; Types.field "b" Types.str ] in
  Alcotest.(check string) "closed object" "contained"
    (kind
       (Contain.check
          ~root:(parse {|{"type":"object","required":["a"],"properties":{"a":{"type":"number"},"b":{"type":"string"}}}|})
          t));
  Alcotest.(check string) "bounds refuted" "not_contained"
    (kind
       (Contain.check
          ~root:(parse {|{"type":"object","properties":{"a":{"type":"integer","minimum":0}}}|})
          t));
  Alcotest.(check string) "pattern is unknown" "unknown"
    (kind
       (Contain.check
          ~root:(parse {|{"type":"object","properties":{"b":{"type":"string","pattern":".*"}}}|})
          t));
  Alcotest.(check string) "int vs multipleOf 1 proved" "contained"
    (kind (Contain.check ~root:(parse {|{"type":"integer","multipleOf":1}|}) Types.int));
  Alcotest.(check string) "enum over finite bool" "contained"
    (kind (Contain.check ~root:(parse {|{"enum":[true,false,0]}|}) Types.bool));
  Alcotest.(check string) "enum pigeonholed over int" "not_contained"
    (kind (Contain.check ~root:(parse {|{"enum":[0,1,2]}|}) Types.int))

(* --- conformance corpus: type or sub-schema, schema, expected verdict ---- *)

(* [Some valid] when both engines agree on [w] under [root], [None] when
   they disagree or [root] does not compile *)
let engines_agree root w =
  let interpreted = Jsonschema.Validate.is_valid ~root w in
  match Jsonschema.Compile.compile root with
  | Ok plan when Jsonschema.Compile.is_valid plan w = interpreted -> Some interpreted
  | Ok _ | Error _ -> None

let containment_corpus_case file case =
  let get k fields = List.assoc_opt k fields in
  match case with
  | V.Object fields ->
      let name =
        match get "description" fields with
        | Some (V.String s) -> s
        | _ -> "?"
      in
      let fail fmt = Alcotest.failf ("%s :: %s : " ^^ fmt) file name in
      let root =
        match get "schema" fields with Some s -> s | None -> fail "missing schema"
      in
      let expected =
        match get "verdict" fields with
        | Some (V.String s) -> s
        | _ -> fail "missing verdict"
      in
      (* a case names either a type or a sub-schema; [is_member w] is the
         corpus promise for a witness on the left-hand side *)
      let verdict, is_member =
        match (get "type" fields, get "sub" fields) with
        | Some tj, None -> (
            match Types.of_json tj with
            | Ok t -> (Contain.check ~root t, fun w -> Typecheck.member w t)
            | Error e -> fail "bad type: %s" e)
        | None, Some sub ->
            ( Contain.check_schema ~sub root,
              fun w -> engines_agree sub w = Some true )
        | _ -> fail "needs exactly one of type and sub"
      in
      (match (verdict, expected) with
      | Contain.Contained, "contained" -> ()
      | Contain.Not_contained w, "not_contained" ->
          (* the corpus promise: the witness is rejected by both engines *)
          if not (is_member w) then
            fail "witness %s not on the left-hand side" (Json.Printer.to_string w);
          if engines_agree root w <> Some false then
            fail "witness %s not rejected by both engines" (Json.Printer.to_string w)
      | Contain.Unknown _, "unknown" -> ()
      | got, _ ->
          fail "expected %s, got %s" expected (Contain.verdict_to_string got))
  | _ -> Alcotest.failf "%s: corpus case must be an object" file

let test_containment_corpus () =
  let dir = Filename.concat Conformance_corpus.dir "containment" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  let cases = ref 0 in
  List.iter
    (fun f ->
      match Json.Parser.parse (read_file (Filename.concat dir f)) with
      | Error e ->
          Alcotest.failf "%s: %s" f (Json.Parser.string_of_error e)
      | Ok (V.Array cs) ->
          List.iter
            (fun c ->
              incr cases;
              containment_corpus_case f c)
            cs
      | Ok _ -> Alcotest.failf "%s: corpus file must be an array" f)
    files;
  Printf.printf "containment corpus: %d cases\n" !cases;
  Alcotest.(check bool) "at least 30 cases" true (!cases >= 30)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "subtype"
    [ ("properties",
       q
         [ prop_reflexive; prop_witness_sound; prop_sub_sound_on_values;
           prop_at_least_syntactic; prop_union_monotone; prop_contain_oracle;
           prop_contain_self ]);
      ("units",
       [ Alcotest.test_case "scalars" `Quick test_scalars;
         Alcotest.test_case "records" `Quick test_records;
         Alcotest.test_case "union distribution" `Quick test_union_distribution;
         Alcotest.test_case "wide and deep" `Quick test_wide_and_deep_termination;
         Alcotest.test_case "contain basics" `Quick test_contain_basics ]);
      ("corpus",
       [ Alcotest.test_case "containment corpus" `Quick test_containment_corpus ]) ]
