(* Tests for the hash-consed type kernel (Jtype.Types interning) and the
   fusion behind Jtype.Merge.

   The centerpiece is a differential oracle: [Seed] (test/pairwise.ml) is
   an independent re-implementation of the pre-kernel representation — a
   plain variant with deep-structural compare and the paper's pairwise
   fusion — and the QCheck properties demand that [Merge.merge_all], which
   runs on [Counting]'s accumulator, produce the same printed type for
   both equivalences, on types typed from random values and on types
   generated directly. Physical-sharing and determinism tests pin the
   properties the hash-consed kernel promises. *)

open Jtype
module Seed = Pairwise.Seed

let ty = Alcotest.testable Types.pp Types.equal

(* --- generators (same shape as test_jtype's) ---------------------------- *)

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

(* --- oracle properties --------------------------------------------------- *)

let prop_oracle_merge =
  QCheck2.Test.make ~name:"kernel merge == seed merge (oracle)" ~count:500
    QCheck2.Gen.(pair gen_equiv (list_size (int_range 0 12) gen_value))
    (fun (equiv, vs) ->
      let kernel =
        Types.to_string (Merge.merge_all ~equiv (List.map Types.of_value vs))
      in
      let seed =
        Seed.to_string (Seed.merge_all ~equiv (List.map Seed.of_value vs))
      in
      String.equal kernel seed)

(* Types built through the smart constructors rather than typed from
   values: optional fields, [Any] and [Bot] under fields and arrays, unions
   whose branches the equivalence fuses ([Int + Num], records of one kind
   or one label set) and unions of unions, empty records and arrays, and
   labels that share a prefix. *)
let gen_type =
  QCheck2.Gen.(
    let leaf =
      frequency
        (List.map (fun t -> (2, return t)) Types.[ bot; null; bool; int; num; str ]
        @ [ (1, return Types.any) ])
    in
    let label = oneofl [ "a"; "ab"; "abc"; "b"; "ba" ] in
    let record sub =
      map
        (fun fields ->
          let seen = Hashtbl.create 4 in
          Types.rec_
            (List.filter_map
               (fun (name, optional, t) ->
                 if Hashtbl.mem seen name then None
                 else begin
                   Hashtbl.add seen name ();
                   Some (Types.field ~optional name t)
                 end)
               fields))
        (list_size (int_range 0 4) (triple label bool sub))
    in
    sized_size (int_range 0 12)
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [ (2, leaf);
                 (2, map Types.arr sub);
                 (3, record sub);
                 (2, map Types.union (list_size (int_range 0 4) sub)) ]))

let print_types ts = String.concat "\n" (List.map Types.to_string ts)

let prop_oracle_generated =
  QCheck2.Test.make ~name:"merge_all on generated types == seed fold (oracle)"
    ~count:500 ~print:(fun (ts, _, _) -> print_types ts)
    QCheck2.Gen.(
      let* ts = list_size (int_range 0 8) gen_type in
      let* shuffled = shuffle_l ts in
      let+ dups = list_size (int_range 0 3) (oneofl (Types.bot :: ts)) in
      (ts, shuffled, dups))
    (fun (ts, shuffled, dups) ->
      List.for_all
        (fun equiv ->
          let t = Merge.merge_all ~equiv ts in
          String.equal (Types.to_string t)
            (Seed.to_string (Seed.merge_all ~equiv (List.map Seed.of_types ts)))
          && Types.equal (Merge.merge_all ~equiv (shuffled @ dups)) t
          && Types.equal (List.fold_left (Merge.merge ~equiv) Types.bot ts) t
          &&
          match ts with
          | a :: b :: _ ->
              Types.equal (Merge.merge ~equiv a b) (Merge.merge_all ~equiv [ a; b ])
          | _ -> true)
        [ Merge.Kind; Merge.Label ])

let prop_hash_structural =
  QCheck2.Test.make ~name:"hash is structural" ~count:300
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) ->
      let ta = Types.of_value a and tb = Types.of_value b in
      (Types.hash ta = Types.hash tb || not (Types.equal ta tb))
      && Types.hash ta = Types.hash (Types.of_value a))

(* --- physical sharing ---------------------------------------------------- *)

let docs_of src =
  List.map Json.Parser.parse_exn (String.split_on_char '\n' (String.trim src))

let sample_docs =
  docs_of
    {|{"id": 1, "tags": ["a", "b"], "meta": {"lang": "en"}}
{"id": 2, "tags": [], "meta": {"lang": "fr"}}
{"id": 3.5, "tags": ["c"], "meta": {"lang": "en"}, "extra": null}
{"id": 4, "tags": ["a"], "meta": {"lang": "de"}}|}

let test_interning_shares () =
  let v = List.hd sample_docs in
  Alcotest.(check bool) "of_value is physically stable" true
    (Types.of_value v == Types.of_value v);
  let t1 = Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value sample_docs) in
  let t2 = Merge.merge_all ~equiv:Merge.Kind (List.map Types.of_value sample_docs) in
  Alcotest.(check bool) "re-inference returns the same node" true (t1 == t2);
  (match Types.of_json (Types.to_json t1) with
   | Ok t3 ->
       Alcotest.(check bool) "json round-trip re-interns to the same node" true
         (t1 == t3)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "distinct structures stay distinct" false
    (Types.of_value (List.hd sample_docs)
    == Types.of_value (List.nth sample_docs 1))

let test_ids_and_hashes () =
  let t = Types.of_value (List.hd sample_docs) in
  Alcotest.(check int) "id stable across re-interning" (Types.id t)
    (Types.id (Types.of_value (List.hd sample_docs)));
  Alcotest.(check bool) "scalars are global singletons" true
    (Types.int == Types.int && Types.of_value (Json.Value.Int 7) == Types.int)

(* --- cache determinism under sharding ------------------------------------ *)

let determinism_corpus =
  let st = Datagen.rng ~seed:4242 in
  Datagen.heterogeneous st ~heterogeneity:0.8 600

let test_jobs_determinism () =
  let text = Datagen.to_ndjson determinism_corpus in
  List.iter
    (fun equiv ->
      let results =
        List.map
          (fun jobs ->
            let i, _, _ =
              Result.get_ok
                (Core.Pipeline.infer_ndjson ~equiv ~engine:`Tree ~jobs text)
            in
            Types.to_string i.Core.Pipeline.jtype
            ^ "\n"
            ^ Counting.to_string i.Core.Pipeline.counting)
          [ 1; 4; 8 ]
      in
      match results with
      | [ r1; r4; r8 ] ->
          Alcotest.(check string) "jobs 4 == jobs 1" r1 r4;
          Alcotest.(check string) "jobs 8 == jobs 1" r1 r8
      | _ -> assert false)
    [ Merge.Kind; Merge.Label ]

let test_warm_cache_determinism () =
  (* repeated inference, before and after the (no-op) cache clear, returns
     the same type *)
  let run () =
    Types.to_string
      (Inference.Parametric.infer ~equiv:Merge.Label determinism_corpus)
  in
  let cold = (Merge.clear_caches (); run ()) in
  let warm = run () in
  let warm2 = run () in
  Alcotest.(check string) "warm == cold" cold warm;
  Alcotest.(check string) "warm is stable" warm warm2

(* --- float print/parse round-trips --------------------------------------- *)

let test_float_roundtrip () =
  let cases =
    [ ("-0.0", -0.0);
      ("1e21", 1e21);
      ("1e-21", 1e-21);
      ("0.1", 0.1);
      ("0.30000000000000004", 0.1 +. 0.2);           (* 17 significant digits *)
      ("2.2250738585072014e-308", 2.2250738585072014e-308);
      ("5e-324", 5e-324);                             (* smallest denormal *)
      ("1.7976931348623157e308", Float.max_float);
      ("9007199254740993.0", 9007199254740993.0);
      ("123456789.123456789", 123456789.123456789) ]
  in
  List.iter
    (fun (name, f) ->
      let printed = Json.Printer.to_string (Json.Value.Float f) in
      match Json.Parser.parse_exn printed with
      | Json.Value.Float g ->
          Alcotest.(check int64)
            (Printf.sprintf "%s (printed %s) bit-exact" name printed)
            (Int64.bits_of_float f) (Int64.bits_of_float g)
      | other ->
          Alcotest.failf "%s reparsed as %s" name (Json.Printer.to_string other))
    cases;
  (* -0.0 must keep its sign through the printer *)
  Alcotest.(check string) "-0.0 prints with its sign" "-0.0"
    (Json.Printer.to_string (Json.Value.Float (-0.0)))

let prop_float_roundtrip =
  QCheck2.Test.make ~name:"random float round-trips bit-exactly" ~count:1000
    QCheck2.Gen.float
    (fun f ->
      (not (Float.is_finite f))
      ||
      match Json.Parser.parse_exn (Json.Printer.to_string (Json.Value.Float f)) with
      | Json.Value.Float g -> Int64.bits_of_float f = Int64.bits_of_float g
      | Json.Value.Int n -> float_of_int n = f
      | _ -> false)

(* --- kernel equal/compare laws ------------------------------------------- *)

let test_equal_is_structural () =
  let a = Types.union [ Types.int; Types.str; Types.arr Types.num ] in
  let b = Types.union [ Types.arr Types.num; Types.str; Types.int ] in
  Alcotest.(check ty) "union order canonical" a b;
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check int) "compare 0" 0 (Types.compare a b)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "kernel"
    [ ("oracle",
       q [ prop_oracle_merge; prop_oracle_generated; prop_hash_structural ]);
      ("sharing",
       [ Alcotest.test_case "interning shares" `Quick test_interning_shares;
         Alcotest.test_case "ids and hashes" `Quick test_ids_and_hashes;
         Alcotest.test_case "equal is structural" `Quick test_equal_is_structural ]);
      ("determinism",
       [ Alcotest.test_case "jobs 1/4/8" `Quick test_jobs_determinism;
         Alcotest.test_case "warm cache" `Quick test_warm_cache_determinism ]);
      ("floats",
       Alcotest.test_case "pinned round-trips" `Quick test_float_roundtrip
       :: q [ prop_float_roundtrip ]) ]
