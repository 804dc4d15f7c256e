(* Tests for the hash-consed type kernel (Jtype.Types interning +
   Jtype.Merge memoized fusion).

   The centerpiece is a differential oracle: [Seed] below is an
   independent re-implementation of the pre-kernel representation — a
   plain variant with deep-structural compare and the unmemoized fusion
   algorithm — and the QCheck properties demand that kernel-backed
   inference produce the same printed type for both equivalences on
   random corpora. Physical-sharing and cache-determinism tests pin the
   properties the memo caches rely on. *)

open Jtype

let ty = Alcotest.testable Types.pp Types.equal

(* --- the seed oracle ---------------------------------------------------- *)

module Seed = struct
  type t =
    | Bot
    | Null
    | Bool
    | Int
    | Num
    | Str
    | Arr of t
    | Rec of field list
    | Union of t list
    | Any

  and field = { fname : string; optional : bool; ftype : t }

  let rank = function
    | Bot -> 0 | Null -> 1 | Bool -> 2 | Int -> 3 | Num -> 4 | Str -> 5
    | Arr _ -> 6 | Rec _ -> 7 | Union _ -> 8 | Any -> 9

  let rec compare a b =
    match (a, b) with
    | Arr x, Arr y -> compare x y
    | Rec xs, Rec ys -> compare_fields xs ys
    | Union xs, Union ys -> compare_list xs ys
    | _ -> Stdlib.compare (rank a) (rank b)

  and compare_list xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs', y :: ys' ->
        let c = compare x y in
        if c <> 0 then c else compare_list xs' ys'

  and compare_fields xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs', y :: ys' ->
        let c = String.compare x.fname y.fname in
        if c <> 0 then c
        else
          let c = Bool.compare x.optional y.optional in
          if c <> 0 then c
          else
            let c = compare x.ftype y.ftype in
            if c <> 0 then c else compare_fields xs' ys'

  let union ts =
    let rec flatten acc = function
      | [] -> acc
      | Union us :: rest -> flatten (flatten acc us) rest
      | Bot :: rest -> flatten acc rest
      | t :: rest -> flatten (t :: acc) rest
    in
    let flat = flatten [] ts in
    if List.exists (fun t -> t = Any) flat then Any
    else
      match List.sort_uniq compare flat with
      | [] -> Bot
      | [ t ] -> t
      | ts -> Union ts

  let rec of_value (v : Json.Value.t) : t =
    match v with
    | Json.Value.Null -> Null
    | Json.Value.Bool _ -> Bool
    | Json.Value.Int _ -> Int
    | Json.Value.Float _ -> Num
    | Json.Value.String _ -> Str
    | Json.Value.Array vs -> Arr (union (List.map of_value vs))
    | Json.Value.Object fields ->
        let seen = Hashtbl.create 8 in
        let uniq =
          List.filter
            (fun (k, _) ->
              if Hashtbl.mem seen k then false
              else (Hashtbl.add seen k (); true))
            (List.rev fields)
        in
        let fields =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            (List.map (fun (k, x) -> (k, of_value x)) uniq)
        in
        Rec (List.map (fun (k, ft) -> { fname = k; optional = false; ftype = ft }) fields)

  let rec merge_fields ~equiv xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.map (fun f -> { f with optional = true }) rest
    | (x :: xs' as xl), (y :: ys' as yl) ->
        let c = String.compare x.fname y.fname in
        if c = 0 then
          { fname = x.fname;
            optional = x.optional || y.optional;
            ftype = merge_canonical ~equiv x.ftype y.ftype }
          :: merge_fields ~equiv xs' ys'
        else if c < 0 then { x with optional = true } :: merge_fields ~equiv xs' yl
        else { y with optional = true } :: merge_fields ~equiv xl ys'

  and same_labels xs ys =
    List.length xs = List.length ys
    && List.for_all2 (fun x y -> String.equal x.fname y.fname) xs ys

  and fuse ~equiv a b =
    match (a, b) with
    | Any, _ | _, Any -> Some Any
    | Null, Null -> Some Null
    | Bool, Bool -> Some Bool
    | Int, Int -> Some Int
    | Str, Str -> Some Str
    | (Num | Int), (Num | Int) -> Some Num
    | Arr x, Arr y -> Some (Arr (merge_canonical ~equiv x y))
    | Rec xs, Rec ys -> (
        match (equiv : Merge.equiv) with
        | Kind -> Some (Rec (merge_fields ~equiv xs ys))
        | Label ->
            if same_labels xs ys then Some (Rec (merge_fields ~equiv xs ys))
            else None)
    | _ -> None

  and insert ~equiv branch acc =
    let rec go seen = function
      | [] -> List.rev (branch :: seen)
      | candidate :: rest -> (
          match fuse ~equiv candidate branch with
          | Some fused -> insert ~equiv fused (List.rev_append seen rest)
          | None -> go (candidate :: seen) rest)
    in
    go [] acc

  and merge_canonical ~equiv a b =
    let branches = function Union ts -> ts | Bot -> [] | t -> [ t ] in
    union
      (List.fold_left (fun acc t -> insert ~equiv t acc) [] (branches a @ branches b))

  and push_down ~equiv t =
    match t with
    | Bot | Null | Bool | Int | Num | Str | Any -> t
    | Arr x -> Arr (simplify ~equiv x)
    | Rec fields ->
        Rec (List.map (fun f -> { f with ftype = simplify ~equiv f.ftype }) fields)
    | Union ts -> union (List.map (push_down ~equiv) ts)

  and simplify ~equiv t =
    match t with
    | Union ts ->
        let ts = List.map (push_down ~equiv) ts in
        union (List.fold_left (fun acc t -> insert ~equiv t acc) [] ts)
    | t -> push_down ~equiv t

  let merge_all ~equiv = function
    | [] -> Bot
    | t :: ts ->
        List.fold_left
          (fun acc t -> merge_canonical ~equiv acc (simplify ~equiv t))
          (simplify ~equiv t) ts

  let rec to_string t =
    match t with
    | Bot -> "Bot"
    | Null -> "Null"
    | Bool -> "Bool"
    | Int -> "Int"
    | Num -> "Num"
    | Str -> "Str"
    | Any -> "Any"
    | Arr Bot -> "[]"
    | Arr t -> "[" ^ to_string t ^ "]"
    | Rec fields ->
        let f { fname; optional; ftype } =
          Printf.sprintf "%s%s: %s" fname (if optional then "?" else "")
            (to_string ftype)
        in
        "{" ^ String.concat ", " (List.map f fields) ^ "}"
    | Union ts -> String.concat " + " (List.map to_string_atom ts)

  and to_string_atom t =
    match t with Union _ -> "(" ^ to_string t ^ ")" | _ -> to_string t
end

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

let prop_oracle_memo_off =
  (* the memo caches change cost, never results *)
  QCheck2.Test.make ~name:"memoized merge == unmemoized merge" ~count:300
    QCheck2.Gen.(pair gen_equiv (list_size (int_range 0 10) gen_value))
    (fun (equiv, vs) ->
      let ts () = List.map Types.of_value vs in
      let memoized = Merge.merge_all ~equiv (ts ()) in
      Merge.set_memoize false;
      let plain =
        Fun.protect
          ~finally:(fun () -> Merge.set_memoize true)
          (fun () -> Merge.merge_all ~equiv (ts ()))
      in
      memoized == plain)

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
  List.iter
    (fun equiv ->
      let results =
        List.map
          (fun jobs ->
            let i = Core.Pipeline.infer ~equiv ~jobs determinism_corpus in
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
  (* a warm memo cache must not perturb results: run the same inference
     repeatedly and against a freshly cleared cache *)
  let run () =
    Types.to_string
      (Inference.Parametric.infer ~equiv:Merge.Label determinism_corpus)
  in
  let cold = (Merge.clear_caches (); run ()) in
  let warm = run () in
  let warm2 = run () in
  Alcotest.(check string) "warm == cold" cold warm;
  Alcotest.(check string) "warm is stable" warm warm2;
  Alcotest.(check bool) "cache grew" true (Merge.cache_size () > 0)

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
       q [ prop_oracle_merge; prop_oracle_memo_off; prop_hash_structural ]);
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
