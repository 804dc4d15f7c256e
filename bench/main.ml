(* Experiment harness: regenerates every table of EXPERIMENTS.md (E1-E20).

   The source paper is a tutorial with no tables/figures of its own; each
   experiment here operationalizes one of its quantitative claims (see
   DESIGN.md for the index). Default mode prints the tables; --micro runs
   the Bechamel micro-benchmarks (one Test per experiment workload);
   naming experiments on the command line (e.g. "e14 e3") runs only
   those. *)

open Core

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* median-of-3 timing for the wall-clock numbers *)
let timed f =
  let _ = f () in
  let samples = List.init 3 (fun _ -> snd (time f)) in
  match List.sort compare samples with
  | [ _; m; _ ] -> m
  | _ -> assert false

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let split_half xs =
  let n = List.length xs / 2 in
  let rec go i acc = function
    | rest when i = n -> (List.rev acc, rest)
    | x :: rest -> go (i + 1) (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  go 0 [] xs

(* ---------------------------------------------------------------- E1 --- *)

(* corrupt a document: flip one field's value to a shape the corpus never
   produces — an imprecise schema fails to notice *)
let corrupt (v : Json.Value.t) =
  match v with
  | Json.Value.Object ((k, _) :: rest) ->
      Json.Value.Object
        ((k, Json.Value.Object [ ("__corrupted", Json.Value.Array [ Json.Value.Null ]) ])
        :: rest)
  | v -> Json.Value.Array [ v ]

let e1 () =
  header "E1  Inference precision & size vs heterogeneity (union types matter)";
  Printf.printf "%-6s %-18s %10s %12s %8s\n" "h" "approach" "recall" "specificity" "size";
  List.iter
    (fun h ->
      let st = Datagen.rng ~seed:101 in
      let docs = Datagen.heterogeneous st ~heterogeneity:h 2000 in
      let train, test = split_half docs in
      let corrupted = List.map corrupt test in
      let frac pred xs =
        float_of_int (List.length (List.filter pred xs)) /. float_of_int (List.length xs)
      in
      let row name accepts size =
        (* recall: accepts held-out valid docs; specificity: rejects corrupted *)
        Printf.printf "%-6.2f %-18s %10.3f %12.3f %8d\n" h name (frac accepts test)
          (1.0 -. frac accepts corrupted)
          size
      in
      let param equiv name =
        let t = Inference.Parametric.infer ~equiv train in
        row name (fun v -> Jtype.Typecheck.member v t) (Jtype.Types.size t)
      in
      param Jtype.Merge.Kind "parametric-kind";
      param Jtype.Merge.Label "parametric-label";
      let spark_t = Inference.Spark.to_jtype (Inference.Spark.infer train) in
      row "spark" (fun v -> Jtype.Typecheck.member v spark_t) (Jtype.Types.size spark_t);
      let sk_root = Jsonschema.Print.to_json (Inference.Skinfer.infer train) in
      row "skinfer"
        (Jsonschema.Validate.is_valid ~root:sk_root)
        (Jsonschema.Schema.size (Inference.Skinfer.infer train));
      let mongo_t = Inference.Mongo.to_jtype (Inference.Mongo.analyze train) in
      row "mongodb-schema" (fun v -> Jtype.Typecheck.member v mongo_t)
        (Jtype.Types.size mongo_t))
    [ 0.0; 0.25; 0.5; 1.0 ];
  print_endline "shape: parametric keeps recall ~1.0 AND high specificity; spark's";
  print_endline "       string-fallback loses recall, skinfer's widening loses specificity"

(* ---------------------------------------------------------------- E2 --- *)

let e2 () =
  header "E2  Kind vs label equivalence: conciseness/precision trade-off (tweets)";
  let st = Datagen.rng ~seed:102 in
  let docs = Datagen.tweets st 2000 in
  let train, test = split_half docs in
  Printf.printf "%-8s %10s %14s %14s\n" "equiv" "size" "precision-in" "precision-out";
  List.iter
    (fun (name, equiv) ->
      let t = Inference.Parametric.infer ~equiv train in
      Printf.printf "%-8s %10d %14.3f %14.3f\n" name (Jtype.Types.size t)
        (Inference.Parametric.precision t train)
        (Inference.Parametric.precision t test))
    [ ("kind", Jtype.Merge.Kind); ("label", Jtype.Merge.Label) ];
  print_endline "shape: label is bigger (more precise in-sample); kind generalizes"

(* ---------------------------------------------------------------- E3 --- *)

let e3 () =
  header "E3  Distributed (merge-tree) inference: shape-independence & time";
  let st = Datagen.rng ~seed:103 in
  let docs = Datagen.tweets st 20000 in
  let reference = Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs in
  let t_seq =
    timed (fun () -> ignore (Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs))
  in
  Printf.printf "%-12s %10s %8s\n" "partitions" "time(ms)" "same?";
  Printf.printf "%-12s %10.1f %8s\n" "sequential" (t_seq *. 1e3) "ref";
  List.iter
    (fun p ->
      let result = ref Jtype.Types.bot in
      let t =
        timed (fun () ->
            result :=
              Inference.Parametric.infer_partitioned ~equiv:Jtype.Merge.Kind
                ~partitions:p docs)
      in
      Printf.printf "%-12d %10.1f %8s\n" p (t *. 1e3)
        (if Jtype.Types.equal !result reference then "yes" else "NO!"))
    [ 1; 4; 16; 64 ];
  print_endline "shape: identical result for every partitioning (assoc/comm merge)"

(* ---------------------------------------------------------------- E4 --- *)

let e4 () =
  header "E4  Validation throughput across schema languages (flat event records)";
  let st = Datagen.rng ~seed:104 in
  let docs = Datagen.events st ~fields:8 2000 in
  (* the same contract in four languages *)
  let jtype_schema = Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs in
  let json_schema = Jtype.Interop.to_schema_json jtype_schema in
  let joi_schema =
    Joi.object_
      (List.init 8 (fun j ->
           let field = Printf.sprintf "f%d" j in
           match j mod 4 with
           | 0 -> (field, Joi.(integer |> required))
           | 1 -> (field, Joi.(string |> required))
           | 2 -> (field, Joi.(boolean |> required))
           | _ -> (field, Joi.(number |> required))))
  in
  let jsound_schema =
    match
      Jsound.parse_string
        {|{"f0": "integer", "f1": "string", "f2": "boolean", "f3": "decimal",
           "f4": "integer", "f5": "string", "f6": "boolean", "f7": "decimal"}|}
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let n = List.length docs in
  let bench name f =
    List.iter (fun v -> if not (f v) then failwith (name ^ ": rejected a valid doc")) docs;
    let t = timed (fun () -> List.iter (fun v -> ignore (f v)) docs) in
    Printf.printf "%-22s %12.0f docs/s\n" name (float_of_int n /. t)
  in
  Printf.printf "%-22s %12s\n" "validator" "throughput";
  bench "jtype membership" (fun v -> Jtype.Typecheck.member v jtype_schema);
  bench "json schema" (fun v -> Jsonschema.Validate.is_valid ~root:json_schema v);
  bench "joi" (fun v -> Joi.is_valid joi_schema v);
  bench "jsound" (fun v -> Jsound.is_valid jsound_schema v);
  print_endline "shape: all linear in document size; structural checkers lead"

(* ---------------------------------------------------------------- E5 --- *)

let e5 () =
  header "E5  Mison projection: speedup vs number of projected fields";
  let st = Datagen.rng ~seed:105 in
  let total_fields = 24 in
  let docs = Datagen.events st ~fields:total_fields 10000 in
  let text = Datagen.to_ndjson docs in
  let mb = float_of_int (String.length text) /. 1e6 in
  let t_full =
    timed (fun () ->
        match
          Json.Stream.fold_documents text ~init:0 ~f:(fun acc doc ->
              acc + (match Json.Value.member "f0" doc with Some _ -> 1 | None -> 0))
        with
        | Ok n -> ignore n
        | Error _ -> failwith "parse error")
  in
  Printf.printf "%-24s %10s %10s %8s\n" "parser" "time(ms)" "MB/s" "speedup";
  Printf.printf "%-24s %10.1f %10.1f %8s\n" "full parse" (t_full *. 1e3) (mb /. t_full) "1.0x";
  List.iter
    (fun k ->
      let fields = List.init k (fun i -> Printf.sprintf "f%d" (i * (total_fields / k))) in
      let t =
        timed (fun () ->
            match Fastjson.Mison.project_ndjson { Fastjson.Mison.fields } text with
            | Ok rows -> ignore rows
            | Error m -> failwith m)
      in
      Printf.printf "%-24s %10.1f %10.1f %7.1fx\n"
        (Printf.sprintf "mison (%d/%d fields)" k total_fields)
        (t *. 1e3) (mb /. t) (t_full /. t))
    [ 1; 2; 4; 8; 16; 24 ];
  (* ablation: speculation on/off, on wide records where the wanted fields
     sit late — without the learned ordinal every record re-scans the keys
     before them *)
  let stw = Datagen.rng ~seed:1056 in
  let wide_text = Datagen.to_ndjson (Datagen.events stw ~fields:64 5000) in
  let wmb = float_of_int (String.length wide_text) /. 1e6 in
  let wide_lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' wide_text) in
  let wanted = [ "f58"; "f61" ] in
  let t_nospec =
    timed (fun () ->
        List.iter
          (fun line ->
            let t = Fastjson.Mison.create { Fastjson.Mison.fields = wanted } in
            match Fastjson.Mison.parse_string t line with
            | Ok _ -> ()
            | Error m -> failwith m)
          wide_lines)
  in
  let t_spec =
    timed (fun () ->
        match Fastjson.Mison.project_ndjson { Fastjson.Mison.fields = wanted } wide_text with
        | Ok _ -> ()
        | Error m -> failwith m)
  in
  Printf.printf "%-24s %10.1f %10.1f %8s\n" "64f: late 2f, no spec"
    (t_nospec *. 1e3) (wmb /. t_nospec) "-";
  Printf.printf "%-24s %10.1f %10.1f %7.1fx\n" "64f: late 2f, speculation"
    (t_spec *. 1e3) (wmb /. t_spec) (t_nospec /. t_spec);
  (* nested-path projection: the leveled index reaches into subobjects of
     documents whose bulk (a long numeric body) is never parsed *)
  let st2 = Datagen.rng ~seed:1055 in
  let nested_docs =
    List.map
      (fun doc ->
        match doc with
        | Json.Value.Object fields ->
            Json.Value.Object
              [ ("meta", Json.Value.Object fields);
                ("body",
                 Json.Value.Array (List.init 60 (fun i -> Json.Value.Int (i * 7)))) ]
        | v -> v)
      (Datagen.events st2 ~fields:8 10000)
  in
  let nested_text = Datagen.to_ndjson nested_docs in
  let nmb = float_of_int (String.length nested_text) /. 1e6 in
  let t_nested_full =
    timed (fun () ->
        ignore
          (Json.Stream.fold_documents nested_text ~init:0 ~f:(fun acc doc ->
               match Json.Value.member "meta" doc with
               | Some u -> (match Json.Value.member "f1" u with Some _ -> acc + 1 | None -> acc)
               | None -> acc)))
  in
  let t_nested =
    timed (fun () ->
        match
          Fastjson.Mison.project_ndjson
            { Fastjson.Mison.fields = [ "meta.f1" ] } nested_text
        with
        | Ok _ -> ()
        | Error m -> failwith m)
  in
  Printf.printf "%-24s %10.1f %10.1f %8s\n" "full parse (meta+body)" (t_nested_full *. 1e3)
    (nmb /. t_nested_full) "1.0x";
  Printf.printf "%-24s %10.1f %10.1f %7.1fx\n" "mison (meta.f1)"
    (t_nested *. 1e3) (nmb /. t_nested) (t_nested_full /. t_nested);
  print_endline "shape: speedup decays as selectivity grows (less pruning);";
  print_endline "       leveled colons reach nested fields without parsing parents"

(* ---------------------------------------------------------------- E6 --- *)

let e6 () =
  header "E6  Fad.js speculation: stable vs shifting access patterns";
  let st = Datagen.rng ~seed:106 in
  let docs = Datagen.events st ~fields:16 10000 in
  let lines = List.map Json.Printer.to_string docs in
  let run pattern_of =
    let d = Fastjson.Fadjs.create () in
    let t =
      timed (fun () ->
          List.iteri
            (fun i line ->
              match Fastjson.Fadjs.decode d line with
              | Ok doc -> List.iter (fun f -> ignore (Fastjson.Fadjs.get doc f)) (pattern_of i)
              | Error m -> failwith m)
            lines)
    in
    (t, Fastjson.Fadjs.stats d)
  in
  let t_full =
    timed (fun () ->
        List.iter (fun line -> ignore (Json.Parser.parse_exn line)) lines)
  in
  let stable, s_stable = run (fun _ -> [ "f2"; "f5" ]) in
  let shifting, s_shift =
    run (fun i -> if i mod 100 < 50 then [ "f2"; "f5" ] else [ "f9"; "f13" ])
  in
  Printf.printf "%-22s %10s %8s %10s\n" "mode" "time(ms)" "deopts" "speedup";
  Printf.printf "%-22s %10.1f %8s %10s\n" "full parse" (t_full *. 1e3) "-" "1.0x";
  Printf.printf "%-22s %10.1f %8d %9.1fx\n" "stable pattern" (stable *. 1e3)
    s_stable.Fastjson.Fadjs.deopts (t_full /. stable);
  Printf.printf "%-22s %10.1f %8d %9.1fx\n" "shifting pattern" (shifting *. 1e3)
    s_shift.Fastjson.Fadjs.deopts (t_full /. shifting);
  print_endline "shape: stable patterns deopt once; shifts cost deopts but stay ahead"

(* ---------------------------------------------------------------- E7 --- *)

let e7 () =
  header "E7  Schema-aware translation: size & throughput (tweets)";
  let st = Datagen.rng ~seed:107 in
  let docs = Datagen.tweets st 2000 in
  let json_text = Datagen.to_ndjson docs in
  let n = List.length docs in
  let t = Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs in
  let avro_schema = Translate.Avro.of_jtype ~name:"tweet" t in
  let spark = Inference.Spark.infer docs in
  let avro_bytes =
    match Translate.Avro.encode_all avro_schema docs with
    | Ok b -> b
    | Error m -> failwith m
  in
  let table =
    match Translate.Columnar.shred ~schema:spark docs with
    | Ok t -> t
    | Error m -> failwith m
  in
  let col_bytes = Translate.Columnar.encode table in
  let t_avro_enc = timed (fun () -> ignore (Translate.Avro.encode_all avro_schema docs)) in
  let t_avro_dec = timed (fun () -> ignore (Translate.Avro.decode_all avro_schema avro_bytes)) in
  let t_col_enc =
    timed (fun () ->
        ignore (Translate.Columnar.shred ~schema:spark docs);
        ignore (Translate.Columnar.encode table))
  in
  let t_col_dec =
    timed (fun () ->
        match Translate.Columnar.decode ~schema:spark col_bytes with
        | Ok t -> ignore (Translate.Columnar.assemble t)
        | Error m -> failwith m)
  in
  let t_json_parse =
    timed (fun () ->
        ignore (Json.Stream.fold_documents json_text ~init:0 ~f:(fun a _ -> a + 1)))
  in
  (match Translate.Avro.decode_all avro_schema avro_bytes with
   | Ok back when List.length back = n -> ()
   | _ -> failwith "avro roundtrip failed");
  Printf.printf "%-10s %14s %14s %14s\n" "format" "bytes/record" "encode(ms)" "decode(ms)";
  Printf.printf "%-10s %14.1f %14s %14.1f\n" "json"
    (float_of_int (String.length json_text) /. float_of_int n)
    "-" (t_json_parse *. 1e3);
  Printf.printf "%-10s %14.1f %14.1f %14.1f\n" "avro"
    (float_of_int (String.length avro_bytes) /. float_of_int n)
    (t_avro_enc *. 1e3) (t_avro_dec *. 1e3);
  Printf.printf "%-10s %14.1f %14.1f %14.1f\n" "columnar"
    (float_of_int (String.length col_bytes) /. float_of_int n)
    (t_col_enc *. 1e3) (t_col_dec *. 1e3);
  print_endline "shape: binary formats well under JSON text size; decode beats re-parsing"

(* ---------------------------------------------------------------- E8 --- *)

let e8 () =
  header "E8  Skeletons: conciseness vs missed paths (skewed structures)";
  Printf.printf "%-6s %14s %12s %14s %10s\n" "zipf" "skeleton-size" "full-size" "path-coverage" "dropped";
  List.iter
    (fun zipf ->
      let st = Datagen.rng ~seed:108 in
      let docs = Datagen.skewed_structures st ~shapes:20 ~zipf 3000 in
      let sk = Inference.Skeleton.build ~min_support:0.05 ~max_groups:5 docs in
      let full = Inference.Skeleton.build ~min_support:0.0 ~max_groups:10000 docs in
      Printf.printf "%-6.1f %14d %12d %14.2f %10d\n" zipf
        (Inference.Skeleton.size sk)
        (Inference.Skeleton.size full)
        (Inference.Skeleton.path_coverage sk docs)
        sk.Inference.Skeleton.dropped)
    [ 0.5; 1.0; 2.0 ];
  print_endline "shape: higher skew => tiny skeleton covers most docs, yet paths go missing"

(* ---------------------------------------------------------------- E9 --- *)

let e9 () =
  header "E9  Relational normalization from FDs (denormalized orders)";
  Printf.printf "%-8s %8s %8s %12s %12s %10s\n" "orders" "FDs" "tables" "cells-before" "cells-after" "reduction";
  List.iter
    (fun n ->
      let st = Datagen.rng ~seed:109 in
      let docs = Datagen.orders st n in
      let r = Inference.Relational.normalize ~name:"orders" docs in
      Printf.printf "%-8d %8d %8d %12d %12d %9.0f%%\n" n
        (List.length r.Inference.Relational.fds)
        (List.length r.Inference.Relational.tables)
        r.Inference.Relational.cells_before r.Inference.Relational.cells_after
        (100.
        *. (1.
           -. float_of_int r.Inference.Relational.cells_after
              /. float_of_int r.Inference.Relational.cells_before)))
    [ 500; 2000 ];
  print_endline "shape: reduction grows with collection size (dimensions amortize)"

(* --------------------------------------------------------------- E10 --- *)

let e10 () =
  header "E10 Counting types: overhead over plain inference (tweets)";
  let st = Datagen.rng ~seed:110 in
  let docs = Datagen.tweets st 5000 in
  let t_plain =
    timed (fun () -> ignore (Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs))
  in
  let t_counting =
    timed (fun () ->
        ignore (Inference.Parametric.infer_counting ~equiv:Jtype.Merge.Kind docs))
  in
  let c = Inference.Parametric.infer_counting ~equiv:Jtype.Merge.Kind docs in
  Printf.printf "%-18s %10s\n" "variant" "time(ms)";
  Printf.printf "%-18s %10.1f\n" "plain" (t_plain *. 1e3);
  Printf.printf "%-18s %10.1f   (%.2fx)\n" "counting" (t_counting *. 1e3)
    (t_counting /. t_plain);
  (match Jtype.Counting.field_probability c [ "entities" ] with
   | Some p ->
       Printf.printf "sample annotation: P(entities) = %.3f over %d tweets\n" p
         (Jtype.Counting.count c)
   | None -> ());
  print_endline "shape: counting costs a small constant factor, adds cardinalities"


(* --------------------------------------------------------------- E11 --- *)

let e11 () =
  header "E11 Query output-schema inference (Jaql-style): static vs dynamic";
  let st = Datagen.rng ~seed:111 in
  let docs = Datagen.tweets st 5000 in
  let input_t =
    Jtype.Merge.merge_all ~equiv:Jtype.Merge.Kind (List.map Jtype.Types.of_value docs)
  in
  let queries =
    [ "filter $.retweet_count > 2500";
      "transform {id: $.id, lang: $.lang, score: $.retweet_count + $.favorite_count}";
      "expand entities";
      "group by $.lang into {n: count, reach: sum $.retweet_count, top: max $.favorite_count}";
      "filter $.retweet_count > 1000 | transform $.user | group by $.verified into {n: count}" ]
  in
  Printf.printf "%-12s %12s %12s %10s %8s\n" "query" "static(us)" "run(ms)" "out-size" "sound?";
  List.iteri
    (fun i q ->
      let pipeline = Query.Parse.pipeline_exn q in
      let out_t = ref Jtype.Types.bot in
      let t_static =
        timed (fun () -> out_t := Query.Typing.type_pipeline input_t pipeline)
      in
      let outputs = ref [] in
      let t_run = timed (fun () -> outputs := Query.Eval.run pipeline docs) in
      let sound =
        List.for_all (fun v -> Jtype.Typecheck.member v !out_t) !outputs
      in
      Printf.printf "%-12s %12.1f %12.1f %10d %8s\n"
        (Printf.sprintf "Q%d" (i + 1))
        (t_static *. 1e6) (t_run *. 1e3) (Jtype.Types.size !out_t)
        (if sound then "yes" else "NO!"))
    queries;
  print_endline "shape: static inference is ~1000x cheaper than running the query,";
  print_endline "       and every dynamic output inhabits the inferred schema"

(* --------------------------------------------------------------- E12 --- *)

let e12 () =
  header "E12 Schema discovery & profiling (clusters + decision-tree rules)";
  let st = Datagen.rng ~seed:112 in
  let bucket =
    List.concat [ Datagen.tweets st 300; Datagen.articles st 200; Datagen.open_data st 100 ]
  in
  let clusters = Inference.Discovery.discover ~threshold:0.35 bucket in
  Printf.printf "mixed bucket (600 docs, 3 entity kinds): %d clusters found\n"
    (List.length clusters);
  List.iteri
    (fun i (c : Inference.Discovery.cluster) ->
      Printf.printf "  cluster %d: %4d docs, schema size %d\n" i
        c.Inference.Discovery.size
        (Jtype.Types.size c.Inference.Discovery.schema))
    clusters;
  (* profiling: does the tree recover the value->structure rule? *)
  let train = Datagen.tickets st 600 in
  let test = Datagen.tickets st 300 in
  let p = Inference.Profile.profile ~max_depth:3 train in
  Printf.printf "ticket profiling: %d variants, train acc %.3f, held-out acc %.3f\n"
    (List.length p.Inference.Profile.variants)
    p.Inference.Profile.training_accuracy
    (Inference.Profile.accuracy p test);
  (match p.Inference.Profile.tree with
   | Inference.Profile.Split { feature; _ } ->
       Printf.printf "root split: %s\n" feature
   | Inference.Profile.Leaf _ -> print_endline "root split: (none)");
  print_endline "shape: clusters recover the entity kinds; the tree finds the"
  ;
  print_endline "       channel field that determines ticket structure"

(* --------------------------------------------------------------- E13 --- *)

let e13 () =
  header "E13 Resilient ingestion under fault injection (chaos harness)";
  let st = Datagen.rng ~seed:113 in
  let docs = Datagen.tweets st 2000 in
  let text = Datagen.to_ndjson docs in
  (* byte budget below the 64 KiB chaos pad so oversize faults register as
     typed budget kills rather than slipping through *)
  let budget =
    { Resilient.default_budget with Resilient.max_doc_bytes = Some 16384 }
  in
  Printf.printf "%-6s %7s %7s %7s %7s %7s %12s\n"
    "rate" "faults" "ok" "quar" "killed" "dups" "ingest(ms)";
  List.iter
    (fun rate ->
      let o = Chaos.corrupt ~seed:1300 ~rate text in
      let r = ref Resilient.(ingest ~budget "") in
      let t = timed (fun () -> r := Resilient.ingest ~budget o.Chaos.text) in
      let rep = !r.Resilient.report in
      Printf.printf "%-6.2f %7d %7d %7d %7d %7d %12.1f\n" rate
        (List.length o.Chaos.injected)
        rep.Resilient.ok rep.Resilient.quarantined rep.Resilient.budget_killed
        o.Chaos.duplicated (t *. 1e3))
    [ 0.0; 0.01; 0.05; 0.1; 0.25; 0.5 ];
  (* the Mison fast path under the same faults: projection survives, and the
     degradation policy's full-parse fallbacks stay proportional to damage *)
  let o = Chaos.corrupt ~seed:1300 ~rate:0.1 text in
  let p = Resilient.project ~budget ~fields:[ "id"; "lang" ] o.Chaos.text in
  Printf.printf
    "fast path @10%%: %d rows, %d dead, %d full-parse fallbacks of %d records\n"
    (List.length p.Resilient.rows)
    (List.length p.Resilient.proj_dead)
    p.Resilient.mison.Fastjson.Mison.full_parse_fallbacks
    p.Resilient.mison.Fastjson.Mison.records;
  (* budget overhead on a clean corpus: strict parse vs budgeted ingest *)
  let t_plain = timed (fun () -> ignore (Json.Parser.parse_many text)) in
  let t_guard = timed (fun () -> ignore (Resilient.ingest ~budget text)) in
  Printf.printf "clean corpus: plain parse %.1f ms, budgeted ingest %.1f ms (%.2fx)\n"
    (t_plain *. 1e3) (t_guard *. 1e3) (t_guard /. t_plain);
  print_endline "shape: quarantine tracks the injected corruption one-for-one,";
  print_endline "       budgets catch every oversized record, and the guarded"
  ;
  print_endline "       path costs only a small constant factor over raw parsing"

(* --------------------------------------------------------------- E14 --- *)

let e14 () =
  header "E14 Sharded parallel ingestion & inference (domain pool)";
  let st = Datagen.rng ~seed:114 in
  let docs = Datagen.events st ~fields:8 100_000 in
  let text = Datagen.to_ndjson docs in
  let mb = float_of_int (String.length text) /. 1e6 in
  Printf.printf "input: %d documents, %.1f MB NDJSON; recommended domains: %d\n"
    (List.length docs) mb
    (Domain.recommended_domain_count ());
  let reference = Jtype.Types.to_string (Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs) in
  let t1 = ref 1.0 in
  Printf.printf "%-6s %18s %8s %9s %7s\n" "jobs" "ingest+infer(ms)" "MB/s" "speedup" "same?";
  List.iter
    (fun jobs ->
      let out = ref (None, Resilient.(ingest "")) in
      let t = timed (fun () -> out := Pipeline.infer_ndjson_resilient ~jobs text) in
      if jobs = 1 then t1 := t;
      let same =
        match !out with
        | Some inf, r ->
            r.Resilient.report.Resilient.ok = List.length docs
            && Jtype.Types.to_string inf.Pipeline.jtype = reference
        | None, _ -> false
      in
      Printf.printf "%-6d %18.1f %8.1f %8.2fx %7s\n" jobs (t *. 1e3) (mb /. t)
        (!t1 /. t)
        (if jobs = 1 then "ref" else if same then "yes" else "NO!"))
    [ 1; 2; 4; 8 ];
  (* shard-parallel validation of the same batch against its inferred schema *)
  let root = Jtype.Interop.to_schema_json (Inference.Parametric.infer ~equiv:Jtype.Merge.Kind docs) in
  let tv1 = timed (fun () -> ignore (Parallel.validate ~jobs:1 ~root docs)) in
  let tv4 = timed (fun () -> ignore (Parallel.validate ~jobs:4 ~root docs)) in
  Printf.printf "validation: jobs=1 %.1f ms, jobs=4 %.1f ms (%.2fx)\n"
    (tv1 *. 1e3) (tv4 *. 1e3) (tv1 /. tv4);
  print_endline "shape: the merge is associative/commutative, so every job count returns";
  print_endline "       the identical type; speedup tracks the available cores"

(* --------------------------------------------------------------- E15 --- *)

let e15 () =
  header "E15 Telemetry: Mison pruned-bytes ratio under selective projection";
  let st = Datagen.rng ~seed:115 in
  let docs = Datagen.events st ~fields:16 20_000 in
  let text = Datagen.to_ndjson docs in
  let mb = float_of_int (String.length text) /. 1e6 in
  Printf.printf "input: %d wide event records (16 fields), %.1f MB NDJSON\n"
    (List.length docs) mb;
  Printf.printf "%-24s %12s %12s %8s %10s\n" "projection" "materialized" "pruned"
    "ratio" "fallbacks";
  let counter snap name =
    match List.assoc_opt name snap.Telemetry.counters with Some n -> n | None -> 0
  in
  let ratios =
    List.map
      (fun fields ->
        let sink = Telemetry.create () in
        let p = Resilient.project ~telemetry:sink ~fields text in
        assert (p.Resilient.proj_report.Resilient.ok = List.length docs);
        let snap = Telemetry.snapshot sink in
        let input = counter snap "mison.input_bytes" in
        let materialized = counter snap "mison.bytes_materialized" in
        let pruned = counter snap "mison.bytes_pruned" in
        (* the invariant the qcheck property also pins down *)
        assert (pruned + materialized <= input);
        assert (input = String.length text - List.length docs (* newlines *));
        let ratio = float_of_int pruned /. float_of_int input in
        Printf.printf "%-24s %11.2fMB %11.2fMB %7.1f%% %10d\n"
          (String.concat "," fields)
          (float_of_int materialized /. 1e6)
          (float_of_int pruned /. 1e6)
          (100.0 *. ratio)
          (counter snap "mison.full_parse_fallbacks");
        ratio)
      [ [ "f0" ]; [ "f0"; "f5" ]; [ "f0"; "f5"; "f10"; "f15" ] ]
  in
  (* the experiment's claim: a selective projection prunes a strictly
     positive share of the input bytes *)
  assert (List.for_all (fun r -> r > 0.0) ratios);
  let span snap path =
    List.find_opt (fun s -> s.Telemetry.sp_path = path) snap.Telemetry.spans
  in
  let sink = Telemetry.create () in
  ignore (Resilient.project ~telemetry:sink ~fields:[ "f0" ] text);
  (match span (Telemetry.snapshot sink) "mison.index_build" with
   | Some s ->
       Printf.printf
         "structural-index build: %d records, %.1f ms total (%.2f us/record)\n"
         s.Telemetry.sp_calls (s.Telemetry.sp_total_s *. 1e3)
         (s.Telemetry.sp_total_s /. float_of_int s.Telemetry.sp_calls *. 1e6)
   | None -> print_endline "structural-index span missing!");
  print_endline "claim: the colon index lets a selective query materialize only the";
  print_endline "       projected fields; pruned-bytes ratio > 0 on every projection"

(* ---------------------------------------------------------------- E16 --- *)

let e16 () =
  header "E16 Supervision: ingestion throughput under injected worker faults";
  let st = Datagen.rng ~seed:116 in
  let docs = Datagen.events st ~fields:16 20_000 in
  let text = Datagen.to_ndjson docs in
  let total = List.length docs in
  let jobs = 4 in
  let mb = float_of_int (String.length text) /. 1e6 in
  Printf.printf
    "input: %d event records, %.1f MB NDJSON; %d shards; faults: seeded \
     worker-fault plans (Chaos.worker_faults, rate 0.5)\n"
    total mb jobs;
  Printf.printf "%-34s %8s %9s %9s %9s %8s\n" "scenario" "retries" "attempts"
    "poisoned" "docs ok" "MB/s";
  let run_case name ~retries ~inject () =
    let policy =
      { Supervisor.default_policy with
        Supervisor.max_attempts = 1 + retries;
        (* measure retry cost, not sleep cost *)
        base_backoff_ms = 0.0;
        max_backoff_ms = 0.0;
        degrade_threshold = None }
    in
    let go () =
      match
        Pipeline.ingest_ndjson_supervised ~policy ?inject ~jobs text
      with
      | Ok r -> r
      | Error e -> failwith e
    in
    let r, sup = go () in
    let secs = timed (fun () -> ignore (go ())) in
    let s = sup.Pipeline.sup_stats in
    Printf.printf "%-34s %8d %9d %9d %9d %8.1f\n" name retries
      s.Supervisor.attempts s.Supervisor.poisoned r.Resilient.report.Resilient.ok
      (mb /. secs);
    (r, s)
  in
  let transient = Chaos.worker_faults ~seed:116 ~rate:0.5 () in
  let permanent = Chaos.worker_faults ~seed:116 ~rate:0.5 ~permanent:true () in
  let clean, _ = run_case "no faults" ~retries:0 ~inject:None () in
  let dropped, _ =
    run_case "transient faults, no retry" ~retries:0 ~inject:(Some transient) ()
  in
  let recovered, rs =
    run_case "transient faults, 2 retries" ~retries:2 ~inject:(Some transient) ()
  in
  let poisoned, ps =
    run_case "permanent faults, 2 retries" ~retries:2 ~inject:(Some permanent) ()
  in
  (* the experiment's claims, asserted not eyeballed: transient faults cost
     retries but zero data under a >=2-attempt policy; permanent faults
     quarantine exactly the faulted shards and nothing else *)
  assert (clean.Resilient.report.Resilient.ok = total);
  assert (dropped.Resilient.report.Resilient.ok < total);
  assert (recovered.Resilient.report.Resilient.ok = total);
  assert (rs.Supervisor.poisoned = 0 && rs.Supervisor.retries > 0);
  assert (ps.Supervisor.poisoned > 0);
  assert (
    poisoned.Resilient.report.Resilient.poisoned = ps.Supervisor.poisoned);
  print_endline "claim: per-shard retry turns transient worker faults into";
  print_endline "       latency instead of data loss; permanent faults cost only";
  print_endline "       the poisoned shards' documents, never the job"

(* ---------------------------------------------------------------- E17 --- *)

(* Pre-kernel baseline: the plain-variant type representation with deep
   structural compare and unmemoized fusion, as the repo shipped before
   the hash-consed kernel. Same port as the test suite's differential
   oracle (test_kernel.ml), so the speedup is measured against the real
   previous algorithm, not a strawman. *)
module Prekernel = struct
  type t =
    | Bot | Null | Bool | Int | Num | Str
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
        Rec
          (List.map
             (fun (k, ft) -> { fname = k; optional = false; ftype = ft })
             fields)

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
        match (equiv : Jtype.Merge.equiv) with
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
      (List.fold_left
         (fun acc t -> insert ~equiv t acc)
         [] (branches a @ branches b))

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

  let infer ~equiv docs = merge_all ~equiv (List.map of_value docs)

  let rec to_string t =
    match t with
    | Bot -> "Bot" | Null -> "Null" | Bool -> "Bool" | Int -> "Int"
    | Num -> "Num" | Str -> "Str" | Any -> "Any"
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

let e17 () =
  header "E17 Hash-consed kernel: memoized fusion vs pre-kernel merge";
  let union_heavy =
    let st = Datagen.rng ~seed:117 in
    Datagen.heterogeneous st ~heterogeneity:1.0 20_000
  in
  let wide =
    let st = Datagen.rng ~seed:1170 in
    Datagen.events st ~fields:64 3_000
  in
  let kget snap name =
    match List.assoc_opt name snap with Some n -> n | None -> 0
  in
  let rate_pct before after stem =
    let d n = kget after n - kget before n in
    let hits = d (stem ^ ".hits") and misses = d (stem ^ ".misses") in
    if hits + misses = 0 then 0.0
    else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.printf "%-14s %-6s %9s %9s %9s %9s %8s %7s %7s\n" "corpus" "equiv"
    "seed kd/s" "nomemo" "cold kd/s" "warm kd/s" "speedup" "merge%" "fuse%";
  let speedups =
    List.concat_map
      (fun (cname, docs) ->
        let n = float_of_int (List.length docs) in
        List.map
          (fun (ename, equiv) ->
            let seed_t = Prekernel.infer ~equiv docs in
            let seed_s = timed (fun () -> ignore (Prekernel.infer ~equiv docs)) in
            (* cold: every timed sample starts from empty fusion caches *)
            let cold_s =
              timed (fun () ->
                  Jtype.Merge.clear_caches ();
                  ignore (Inference.Parametric.infer ~equiv docs))
            in
            let warm_s =
              timed (fun () -> ignore (Inference.Parametric.infer ~equiv docs))
            in
            (* nomemo: the same fold with the fusion caches switched off,
               which is what the caches are worth *)
            let nomemo_s =
              Jtype.Merge.set_memoize false;
              Fun.protect
                ~finally:(fun () -> Jtype.Merge.set_memoize true)
                (fun () ->
                  timed (fun () ->
                      ignore (Inference.Parametric.infer ~equiv docs)))
            in
            (* cache hit rates over one cold run *)
            Jtype.Merge.clear_caches ();
            let before = Jtype.Kernel.totals () in
            let kernel_t = Inference.Parametric.infer ~equiv docs in
            let after = Jtype.Kernel.totals () in
            (* differential check: kernel and baseline infer the same type *)
            assert (
              String.equal
                (Jtype.Types.to_string kernel_t)
                (Prekernel.to_string seed_t));
            let speedup = seed_s /. cold_s in
            Printf.printf
              "%-14s %-6s %9.1f %9.1f %9.1f %9.1f %7.1fx %6.1f%% %6.1f%%\n"
              cname ename (n /. seed_s /. 1e3) (n /. nomemo_s /. 1e3)
              (n /. cold_s /. 1e3) (n /. warm_s /. 1e3) speedup
              (rate_pct before after "kernel.merge")
              (rate_pct before after "kernel.fuse");
            ((cname, ename), speedup))
          [ ("kind", Jtype.Merge.Kind); ("label", Jtype.Merge.Label) ])
      [ ("union-heavy", union_heavy); ("wide-64", wide) ]
  in
  (* the production tree fold (counting fold plus erasure) stays
     byte-identical at every jobs level *)
  Printf.printf "\n%-14s %-6s %9s %9s %10s\n" "corpus" "equiv" "j1 kd/s"
    "j4 kd/s" "identical";
  List.iter
    (fun (cname, docs) ->
      let n = float_of_int (List.length docs) in
      List.iter
        (fun (ename, equiv) ->
          let run jobs = (Pipeline.infer ~equiv ~jobs docs).Pipeline.jtype in
          let t1 = run 1 in
          let printed = Jtype.Types.to_string t1 in
          let same =
            List.for_all
              (fun jobs -> String.equal printed (Jtype.Types.to_string (run jobs)))
              [ 2; 4; 8 ]
          in
          assert same;
          let s1 = timed (fun () -> ignore (run 1)) in
          let s4 = timed (fun () -> ignore (run 4)) in
          Printf.printf "%-14s %-6s %9.1f %9.1f %10s\n" cname ename
            (n /. s1 /. 1e3) (n /. s4 /. 1e3)
            (if same then "yes" else "NO"))
        [ ("kind", Jtype.Merge.Kind); ("label", Jtype.Merge.Label) ])
    [ ("union-heavy", union_heavy); ("wide-64", wide) ];
  print_endline
    "note: the sharded table times Pipeline.infer, the tree engine's counting";
  print_endline
    "      fold plus erasure; these corpora are merge-bound, so jobs=4 pays";
  print_endline
    "      domain handoff without parse work to amortize it";
  (* the acceptance claim: >= 2x merge-phase throughput on the
     union-heavy corpus at jobs=1, measured cold *)
  List.iter
    (fun ((cname, ename), speedup) ->
      if String.equal cname "union-heavy" then
        if speedup < 2.0 then
          failwith
            (Printf.sprintf "E17: union-heavy/%s speedup %.2fx < 2.0x" ename
               speedup))
    speedups;
  print_endline "claim: hash-consing makes type identity O(1) and the memoized";
  print_endline "       fusion cache short-circuits repeated merges, >=2x the";
  print_endline "       pre-kernel merge phase on union-heavy corpora; results";
  print_endline "       stay byte-identical at every --jobs level"

(* ---------------------------------------------------------------- E18 --- *)

let e18 () =
  header "E18 Compiled validation plans: lowered engine vs tree-walk interpreter";
  (* format-heavy: six asserted formats per record, 1-in-50 invalid *)
  let format_schema =
    Json.Parser.parse_exn
      {|{"type": "object",
         "required": ["ts", "ip", "mail", "id", "uri", "day"],
         "properties": {
           "ts":   {"type": "string", "format": "date-time"},
           "ip":   {"type": "string", "format": "ipv4"},
           "mail": {"type": "string", "format": "email"},
           "id":   {"type": "string", "format": "uuid"},
           "uri":  {"type": "string", "format": "uri"},
           "day":  {"type": "string", "format": "date"}}}|}
  in
  let format_docs =
    List.init 20_000 (fun i ->
        let open Json.Value in
        Object
          [ ("ts", String (Printf.sprintf "2024-01-02T03:%02d:%02dZ" (i mod 60) (i mod 60)));
            ("ip", String (if i mod 50 = 7 then "999.1.2.3"
                           else Printf.sprintf "10.%d.%d.%d" (i mod 256) (i / 256 mod 256) (i mod 250)));
            ("mail", String (Printf.sprintf "user%d@example.com" i));
            ("id", String (Printf.sprintf "123e4567-e89b-12d3-a456-4266%08d" (i mod 100000000)));
            ("uri", String (Printf.sprintf "https://example.com/x/%d" i));
            ("day", String (Printf.sprintf "2024-03-%02d" ((i mod 28) + 1))) ])
  in
  (* $ref-recursive: a tree grammar applied to ~120-node trees *)
  let tree_schema =
    Json.Parser.parse_exn
      {|{"definitions": {"tree": {"type": "object", "required": ["v"],
                                  "properties": {"v": {"type": "integer", "minimum": 0},
                                                 "kids": {"type": "array",
                                                          "items": {"$ref": "#/definitions/tree"}}},
                                  "additionalProperties": false}},
         "$ref": "#/definitions/tree"}|}
  in
  let rec tree lvl i =
    let open Json.Value in
    let v = if lvl = 0 && i mod 40 = 3 then String "poison" else Int (abs i) in
    if lvl = 0 then Object [ ("v", v) ]
    else
      Object
        [ ("v", v);
          ("kids", Array (List.init 3 (fun k -> tree (lvl - 1) ((i * 3) + k)))) ]
  in
  let tree_docs = List.init 2_000 (fun i -> tree 4 i) in
  (* wide flat records: 64 typed properties, schema produced by inference *)
  let wide_clean =
    let st = Datagen.rng ~seed:118 in
    Datagen.events st ~fields:64 10_000
  in
  let wide_schema =
    Jtype.Interop.to_schema_json
      (Inference.Parametric.infer ~equiv:Jtype.Merge.Kind wide_clean)
  in
  let wide_docs =
    List.mapi (fun i v -> if i mod 100 = 0 then corrupt v else v) wide_clean
  in
  let render failures =
    String.concat "\n"
      (List.map
         (fun (i, es) ->
           String.concat "\n"
             (List.map
                (fun e -> Printf.sprintf "%d: %s" i (Jsonschema.Validate.string_of_error e))
                es))
         failures)
  in
  Printf.printf "%-14s %12s %12s %12s %8s %10s\n" "corpus" "docs"
    "interp kd/s" "plan kd/s" "speedup" "identical";
  let speedups =
    List.map
      (fun (cname, root, config, docs) ->
        let n = List.length docs in
        let plan =
          match Jsonschema.Compile.compile root with
          | Ok p -> p
          | Error _ -> failwith ("E18: " ^ cname ^ " schema must compile")
        in
        (* byte-identity gate: same failure list from both engines through the
           sharded path, at every job count *)
        let reference = Parallel.validate ~config ~compiled:false ~root docs in
        let same =
          List.for_all
            (fun jobs ->
              String.equal (render reference)
                (render (Parallel.validate ~config ~compiled:true ~jobs ~root docs)))
            [ 1; 4; 8 ]
        in
        assert (reference <> []);
        let t_i =
          timed (fun () ->
              List.iter
                (fun v -> ignore (Jsonschema.Validate.validate ~config ~root v))
                docs)
        in
        let t_c =
          timed (fun () ->
              List.iter (fun v -> ignore (Jsonschema.Compile.run ~config plan v)) docs)
        in
        let speedup = t_i /. t_c in
        Printf.printf "%-14s %12d %12.1f %12.1f %7.2fx %10s\n" cname n
          (float_of_int n /. t_i /. 1e3)
          (float_of_int n /. t_c /. 1e3)
          speedup
          (if same then "yes" else "NO!");
        if not same then
          failwith ("E18: " ^ cname ^ ": compiled/interpreted reports diverge");
        (cname, speedup))
      [ ("format-heavy", format_schema,
         { Jsonschema.Validate.default_config with assert_formats = true },
         format_docs);
        ("ref-recursive", tree_schema, Jsonschema.Validate.default_config,
         tree_docs);
        ("wide-64", wide_schema, Jsonschema.Validate.default_config, wide_docs) ]
  in
  (* the acceptance claim: >= 1.5x on the $ref-recursive and format-heavy
     corpora, where plan lowering kills per-document resolution and regex
     re-binding *)
  List.iter
    (fun (cname, speedup) ->
      if cname <> "wide-64" && speedup < 1.5 then
        failwith (Printf.sprintf "E18: %s speedup %.2fx < 1.5x" cname speedup))
    speedups;
  print_endline "claim: lowering the schema once (refs resolved to plan nodes,";
  print_endline "       formats/regexes/enum sets bound at compile time) beats the";
  print_endline "       per-document tree walk >=1.5x on ref- and format-bound";
  print_endline "       corpora; reports stay byte-identical at every --jobs level"

(* ---------------------------------------------------------------- E19 --- *)

(* machine-readable results: --json out.json writes one record per measured
   variant, so CI can diff throughput without scraping the tables *)
let json_records : Json.Value.t list ref = ref []

let record_bench ~name ~variant ~wall_ms ~mb_per_s =
  json_records :=
    Json.Value.Object
      [ ("name", Json.Value.String name);
        ("variant", Json.Value.String variant);
        ("wall_ms", Json.Value.Float wall_ms);
        ("mb_per_s", Json.Value.Float mb_per_s) ]
    :: !json_records

let e19 () =
  header "E19 Streaming fused engine: token-level executors vs tree materialization";
  let ingest_fp (r : Resilient.ingest) =
    String.concat "\n"
      (Json.Printer.to_string (Resilient.report_to_json r.Resilient.report)
      :: List.map
           (fun d -> Json.Printer.to_string (Resilient.dead_letter_to_json d))
           r.Resilient.dead)
  in
  (* --- inference: union-heavy, format-heavy strings, wide records ------- *)
  let union_text =
    let st = Datagen.rng ~seed:119 in
    Datagen.to_ndjson (Datagen.heterogeneous st ~heterogeneity:1.0 30_000)
  in
  let tweet_text =
    let st = Datagen.rng ~seed:1190 in
    Datagen.to_ndjson (Datagen.tweets st 10_000)
  in
  let wide_text =
    let st = Datagen.rng ~seed:1191 in
    Datagen.to_ndjson (Datagen.events st ~fields:64 8_000)
  in
  Printf.printf "%-22s %8s %12s %12s %8s %10s\n" "inference corpus" "MB"
    "tree MB/s" "stream MB/s" "speedup" "identical";
  let infer_speedups =
    List.map
      (fun (cname, text) ->
        let mb = float_of_int (String.length text) /. 1e6 in
        let fp engine jobs =
          let inferred, ing =
            Pipeline.infer_ndjson_resilient ~engine ~jobs text
          in
          (match inferred with
          | Some i -> Jtype.Types.to_string i.Pipeline.jtype
          | None -> "none")
          ^ "\n" ^ ingest_fp ing
        in
        (* byte-identity across engines at every job count *)
        let reference = fp `Tree 1 in
        let same =
          List.for_all
            (fun jobs ->
              String.equal reference (fp `Tree jobs)
              && String.equal reference (fp `Streaming jobs))
            [ 1; 4; 8 ]
        in
        if not same then
          failwith ("E19: " ^ cname ^ ": engines diverge on inference");
        (* the identity sweep above churned the major heap; normalize the
           GC state so it doesn't bleed into either engine's timing *)
        Gc.compact ();
        let t_tree =
          timed (fun () ->
              ignore (Pipeline.infer_ndjson_resilient ~engine:`Tree text))
        in
        let t_stream =
          timed (fun () ->
              ignore (Pipeline.infer_ndjson_resilient ~engine:`Streaming text))
        in
        record_bench ~name:("e19/infer-" ^ cname) ~variant:"tree"
          ~wall_ms:(t_tree *. 1e3) ~mb_per_s:(mb /. t_tree);
        record_bench ~name:("e19/infer-" ^ cname) ~variant:"streaming"
          ~wall_ms:(t_stream *. 1e3) ~mb_per_s:(mb /. t_stream);
        Printf.printf "%-22s %8.1f %12.1f %12.1f %7.2fx %10s\n" cname mb
          (mb /. t_tree) (mb /. t_stream) (t_tree /. t_stream) "yes";
        (cname, t_tree /. t_stream))
      [ ("union-heavy", union_text);
        ("format-heavy(tweets)", tweet_text);
        ("wide-64", wide_text) ]
  in
  (* --- validation: plans that observe only a slice of each document ----- *)
  let tweet_schema =
    Json.Parser.parse_exn
      {|{"type": "object", "required": ["id", "text"],
         "properties": {"id": {"type": "integer"},
                        "text": {"type": "string", "minLength": 1}}}|}
  in
  let wide_schema =
    Json.Parser.parse_exn
      {|{"type": "object", "required": ["f0", "f1"],
         "properties": {"f0": {"type": "integer"},
                        "f1": {"type": "string"}}}|}
  in
  let format_schema =
    Json.Parser.parse_exn
      {|{"type": "object", "required": ["ts", "mail"],
         "properties": {"ts": {"type": "string", "format": "date-time"},
                        "mail": {"type": "string", "format": "email"}}}|}
  in
  let format_text =
    Datagen.to_ndjson
      (List.init 10_000 (fun i ->
           let open Json.Value in
           Object
             [ ("ts",
                String
                  (Printf.sprintf "2024-01-02T03:%02d:%02dZ" (i mod 60)
                     (i mod 60)));
               ("mail", String (Printf.sprintf "user%d@example.com" i));
               ("pad",
                Array
                  (List.init 40 (fun k ->
                       String (Printf.sprintf "filler-%d-%d" i k)))) ]))
  in
  Printf.printf "\n%-22s %8s %12s %12s %8s %10s\n" "validation corpus" "MB"
    "tree MB/s" "stream MB/s" "speedup" "identical";
  let validate_speedups =
    List.map
      (fun (cname, root, config, text) ->
        let mb = float_of_int (String.length text) /. 1e6 in
        let render (ing, failures) =
          ingest_fp ing ^ "\n"
          ^ String.concat "\n"
              (List.map
                 (fun (i, es) ->
                   Printf.sprintf "%d: %s" i
                     (String.concat " | "
                        (List.map Jsonschema.Validate.string_of_error es)))
                 failures)
        in
        let run engine jobs =
          render (Pipeline.validate_ndjson ~config ~engine ~jobs ~root text)
        in
        let reference = run `Tree 1 in
        let same =
          List.for_all
            (fun jobs ->
              String.equal reference (run `Tree jobs)
              && String.equal reference (run `Streaming jobs))
            [ 1; 4; 8 ]
        in
        if not same then
          failwith ("E19: " ^ cname ^ ": engines diverge on validation");
        Gc.compact ();
        let t_tree =
          timed (fun () ->
              ignore (Pipeline.validate_ndjson ~config ~engine:`Tree ~root text))
        in
        let t_stream =
          timed (fun () ->
              ignore
                (Pipeline.validate_ndjson ~config ~engine:`Streaming ~root text))
        in
        record_bench ~name:("e19/validate-" ^ cname) ~variant:"tree"
          ~wall_ms:(t_tree *. 1e3) ~mb_per_s:(mb /. t_tree);
        record_bench ~name:("e19/validate-" ^ cname) ~variant:"streaming"
          ~wall_ms:(t_stream *. 1e3) ~mb_per_s:(mb /. t_stream);
        Printf.printf "%-22s %8.1f %12.1f %12.1f %7.2fx %10s\n" cname mb
          (mb /. t_tree) (mb /. t_stream) (t_tree /. t_stream) "yes";
        (cname, t_tree /. t_stream))
      [ ("wide-64/2-props", wide_schema, Jsonschema.Validate.default_config,
         wide_text);
        ("tweets/2-props", tweet_schema, Jsonschema.Validate.default_config,
         tweet_text);
        ("format-heavy", format_schema,
         { Jsonschema.Validate.default_config with assert_formats = true },
         format_text) ]
  in
  (* --- printer buffer reuse: the NDJSON emit hot paths (checkpoint
     journals, dead-letter reports) render into one retained buffer;
     assert the reuse actually removes the per-document allocations ------ *)
  (* Float-free documents: [Number.print_float]'s shortest-roundtrip search
     allocates the same under both emit strategies and would swamp the
     buffer-reuse delta this assertion is about. *)
  let emit_docs =
    List.init 2_000 (fun i ->
        Json.Value.Object
          (List.init 32 (fun f ->
               ( Printf.sprintf "f%02d" f,
                 if f mod 3 = 0 then Json.Value.Int ((i * 31) + f)
                 else if f mod 3 = 1 then
                   Json.Value.String (Printf.sprintf "value-%d-%d" i f)
                 else Json.Value.Bool ((i + f) mod 2 = 0) ))))
  in
  let minor f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let buf = Buffer.create 4096 in
  let emit_reused () =
    List.iter
      (fun d ->
        Buffer.clear buf;
        Json.Printer.to_buffer buf d;
        Buffer.add_char buf '\n';
        ignore (Buffer.length buf))
      emit_docs
  in
  emit_reused ();
  (* warm: buffer at steady-state capacity *)
  let words_reused = minor emit_reused in
  let words_fresh =
    minor (fun () ->
        List.iter (fun d -> ignore (Json.Printer.to_string d ^ "\n")) emit_docs)
  in
  Printf.printf
    "\nprinter emit (%d docs): fresh strings %.0f minor words, reused buffer \
     %.0f (%.1fx fewer)\n"
    (List.length emit_docs) words_fresh words_reused
    (words_fresh /. Float.max 1.0 words_reused);
  if words_reused >= words_fresh then
    failwith "E19: buffer reuse failed to reduce printer allocations";
  (* the acceptance claims: >= 2x inference and >= 1.5x validation
     throughput, each on at least two corpora, reports byte-identical *)
  let winners thr xs = List.filter (fun (_, s) -> s >= thr) xs in
  let infer_wins = winners 2.0 infer_speedups in
  let validate_wins = winners 1.5 validate_speedups in
  if List.length infer_wins < 2 then
    failwith
      (Printf.sprintf "E19: inference >=2x on only %d corpora"
         (List.length infer_wins));
  if List.length validate_wins < 2 then
    failwith
      (Printf.sprintf "E19: validation >=1.5x on only %d corpora"
         (List.length validate_wins));
  print_endline "claim: fusing the fold with the lexer removes the value-tree";
  print_endline "       allocation entirely (inference) and skims every subtree";
  print_endline "       the plan provably ignores (validation); reports stay";
  print_endline "       byte-identical to the tree engine at every --jobs level"

(* ---------------------------------------------------------------- E20 --- *)

let e20 () =
  header "E20 Containment check: type-vs-plan decision vs full re-validation";
  (* the question `check` answers — "does this corpus still fit the
     schema?" — re-validation answers in O(|data|); the containment
     decision answers it in O(|type|·|plan|), so its cost must not move
     as the corpus grows *)
  let sizes = [ 2_000; 10_000; 30_000 ] in
  let corpora =
    List.map
      (fun n ->
        let st = Datagen.rng ~seed:120 in
        (n, Datagen.to_ndjson (Datagen.orders st n)))
      sizes
  in
  let schema =
    match Pipeline.infer_ndjson (snd (List.hd corpora)) with
    | Ok i -> i.Pipeline.json_schema
    | Error e -> failwith e
  in
  Printf.printf "%-12s %8s %12s %12s %10s %9s\n" "corpus" "MB" "validate ms"
    "contain ms" "verdict" "speedup";
  let rows =
    List.map
      (fun (n, text) ->
        let cname = Printf.sprintf "orders-%dk" (n / 1000) in
        let mb = float_of_int (String.length text) /. 1e6 in
        let t =
          match Pipeline.infer_ndjson text with
          | Ok i -> i.Pipeline.jtype
          | Error e -> failwith e
        in
        let verdict, contain_s =
          time (fun () -> Jtype.Contain.check ~root:schema t)
        in
        let contain_s =
          (* median-of-3 like [timed], reusing the first sample's verdict *)
          List.nth
            (List.sort compare
               (contain_s
               :: List.init 2 (fun _ ->
                      snd (time (fun () -> Jtype.Contain.check ~root:schema t)))))
            1
        in
        (match verdict with
        | Jtype.Contain.Contained -> ()
        | v ->
            failwith
              (Printf.sprintf "E20: %s vs own schema: %s" cname
                 (Jtype.Contain.verdict_to_string v)));
        let validate_s =
          timed (fun () -> ignore (Pipeline.validate_ndjson ~root:schema text))
        in
        let speedup = validate_s /. contain_s in
        Printf.printf "%-12s %8.1f %12.2f %12.3f %10s %8.0fx\n" cname mb
          (validate_s *. 1e3) (contain_s *. 1e3) "contained" speedup;
        record_bench ~name:("e20/" ^ cname) ~variant:"validate"
          ~wall_ms:(validate_s *. 1e3) ~mb_per_s:(mb /. validate_s);
        record_bench ~name:("e20/" ^ cname) ~variant:"contain"
          ~wall_ms:(contain_s *. 1e3) ~mb_per_s:(mb /. contain_s);
        (n, contain_s, speedup))
      corpora
  in
  (* drift: the corpus type against a schema that retyped a field — the
     verdict must carry a concrete witness both engines reject *)
  let drift_schema =
    Json.Value.Object
      [ ("type", Json.Value.String "object");
        ( "properties",
          Json.Value.Object
            [ ( "order_id",
                Json.Value.Object
                  [ ("type", Json.Value.String "string") ] ) ] ) ]
  in
  let t30 =
    match Pipeline.infer_ndjson (snd (List.nth corpora 2)) with
    | Ok i -> i.Pipeline.jtype
    | Error e -> failwith e
  in
  (match Jtype.Contain.check ~root:drift_schema t30 with
  | Jtype.Contain.Not_contained w ->
      let tree = Jsonschema.Validate.is_valid ~root:drift_schema w in
      let compiled =
        match Jsonschema.Compile.compile drift_schema with
        | Ok plan -> Jsonschema.Compile.is_valid plan w
        | Error _ -> failwith "E20: drift schema must compile"
      in
      if tree || compiled then failwith "E20: witness accepted by an engine";
      Printf.printf "drift witness: %s (rejected by both engines)\n"
        (Json.Printer.to_string w)
  | v ->
      failwith
        (Printf.sprintf "E20: drift must be refuted, got %s"
           (Jtype.Contain.verdict_to_string v)));
  (* acceptance: the decision beats re-validation by >=5x on the largest
     corpus, and its cost does not scale with the data *)
  (match List.rev rows with
  | (_, _, speedup) :: _ when speedup < 5.0 ->
      failwith (Printf.sprintf "E20: speedup %.1fx < 5x" speedup)
  | _ -> ());
  print_endline "claim: containment decides schema drift from the inferred type";
  print_endline "       and the compiled plan alone — O(|type|*|plan|), constant";
  print_endline "       in corpus size — and every refutation carries a witness";
  print_endline "       value both validation engines reject"

(* --- bechamel micro-benchmarks ------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let st = Datagen.rng ~seed:999 in
  let tweets = Datagen.tweets st 100 in
  let text = Datagen.to_ndjson tweets in
  let one = List.hd tweets in
  let one_text = Json.Printer.to_string one in
  let jtype_schema = Inference.Parametric.infer ~equiv:Jtype.Merge.Kind tweets in
  let json_schema = Jtype.Interop.to_schema_json jtype_schema in
  let avro_schema = Translate.Avro.of_jtype ~name:"tweet" jtype_schema in
  let tests =
    [ Test.make ~name:"e0/parse-tweet" (Staged.stage (fun () -> Json.Parser.parse_exn one_text));
      Test.make ~name:"e0/print-tweet" (Staged.stage (fun () -> Json.Printer.to_string one));
      Test.make ~name:"e1/infer-100-tweets"
        (Staged.stage (fun () -> Inference.Parametric.infer ~equiv:Jtype.Merge.Kind tweets));
      Test.make ~name:"e4/validate-jsonschema"
        (Staged.stage (fun () -> Jsonschema.Validate.is_valid ~root:json_schema one));
      Test.make ~name:"e4/validate-jtype"
        (Staged.stage (fun () -> Jtype.Typecheck.member one jtype_schema));
      Test.make ~name:"e5/index-build"
        (Staged.stage (fun () -> Fastjson.Structural_index.build one_text));
      Test.make ~name:"e5/project-2-fields"
        (Staged.stage (fun () ->
             Fastjson.Mison.project_ndjson { Fastjson.Mison.fields = [ "id"; "lang" ] } text));
      Test.make ~name:"e7/avro-encode"
        (Staged.stage (fun () -> Translate.Avro.encode avro_schema one));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  Printf.printf "%-28s %16s\n" "micro-benchmark" "ns/run";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.printf "%-28s %16.1f\n" name est
          | _ -> Printf.printf "%-28s %16s\n" name "n/a")
        results)
    tests

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20) ]

let () =
  let micro_mode = Array.exists (fun a -> a = "--micro") Sys.argv in
  (* --json out.json: machine-readable records for the measured variants *)
  let json_path =
    let rec go i =
      if i >= Array.length Sys.argv - 1 then None
      else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  if micro_mode then micro ()
  else begin
    let requested =
      List.filter (fun (n, _) -> Array.exists (String.equal n) Sys.argv) experiments
    in
    let to_run = if requested = [] then experiments else requested in
    print_endline "schemas_types experiment harness (tables E1-E20; see EXPERIMENTS.md)";
    List.iter (fun (_, f) -> f ()) to_run;
    print_newline ()
  end;
  match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      output_string oc
        (Json.Printer.to_string_pretty
           (Json.Value.Array (List.rev !json_records)));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %d bench records to %s\n"
        (List.length !json_records) path
