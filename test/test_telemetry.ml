(* Tests for Core.Telemetry: metric semantics (counters, gauges, log-scale
   histograms, nested spans), the hard promise that recording never changes
   a pipeline's output (byte-identical under nop vs recording sinks, for
   jobs 1 and 4), a differential property that Mison's projection agrees
   with full-parse-then-project while its byte accounting stays within the
   input, and a regression test for the typed budget-cause breakdown.

   Properties run from a fixed seed (QCHECK_SEED overrides) and FUZZ_COUNT
   rescales case counts, as in test_robustness. *)

open Core

let fuzz_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 20250806

let count_cases base =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> base

let counter snap name =
  match List.assoc_opt name snap.Telemetry.counters with Some n -> n | None -> 0

let histo snap name = List.assoc_opt name snap.Telemetry.histograms

(* --- counters and gauges ----------------------------------------------- *)

let test_counters () =
  let s = Telemetry.create () in
  Alcotest.(check bool) "recording" true (Telemetry.is_recording s);
  Alcotest.(check bool) "nop is not" false (Telemetry.is_recording Telemetry.nop);
  Telemetry.count s "a" 1;
  Telemetry.count s "a" 41;
  Telemetry.count s "a" (-7);
  (* negative increments ignored *)
  Telemetry.count s "b" 3;
  let snap = Telemetry.snapshot s in
  Alcotest.(check int) "a sums" 42 (counter snap "a");
  Alcotest.(check int) "b" 3 (counter snap "b");
  Alcotest.(check (list string)) "sorted by name" [ "a"; "b" ]
    (List.map fst snap.Telemetry.counters);
  (* the nop sink records nothing *)
  Telemetry.count Telemetry.nop "x" 5;
  let nsnap = Telemetry.snapshot Telemetry.nop in
  Alcotest.(check int) "nop empty" 0 (List.length nsnap.Telemetry.counters)

let test_gauge_max () =
  let s = Telemetry.create () in
  Telemetry.gauge_max s "depth" 1.0;
  Telemetry.gauge_max s "depth" 5.0;
  Telemetry.gauge_max s "depth" 3.0;
  let snap = Telemetry.snapshot s in
  Alcotest.(check (float 0.0)) "high-water mark" 5.0
    (List.assoc "depth" snap.Telemetry.gauges)

(* --- histograms --------------------------------------------------------- *)

let test_histogram_empty () =
  let h = Telemetry.Histogram.create () in
  Alcotest.(check int) "count" 0 (Telemetry.Histogram.count h);
  Alcotest.(check bool) "p50 of empty" true
    (Telemetry.Histogram.percentile h 0.5 = None)

let test_histogram_single_sample () =
  (* one sample must be reported exactly for every quantile (clamping) *)
  let h = Telemetry.Histogram.create () in
  Telemetry.Histogram.observe h 0.125;
  List.iter
    (fun q ->
      match Telemetry.Histogram.percentile h q with
      | None -> Alcotest.fail "expected a percentile"
      | Some v ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "q=%.2f exact" q)
            0.125 v)
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_histogram_percentiles () =
  let s = Telemetry.create () in
  for i = 1 to 1000 do
    Telemetry.observe s "lat" (float_of_int i)
  done;
  let snap = Telemetry.snapshot s in
  match histo snap "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 1000 h.Telemetry.h_count;
      Alcotest.(check (float 1e-6)) "sum exact" 500500.0 h.Telemetry.h_sum;
      Alcotest.(check (float 1e-12)) "min exact" 1.0 h.Telemetry.h_min;
      Alcotest.(check (float 1e-12)) "max exact" 1000.0 h.Telemetry.h_max;
      (* log-scale buckets at quarter powers of two: relative error of a
         bucket midpoint is bounded by 2^(1/8) - 1 < 9.1% *)
      let close ~exact v =
        let rel = Float.abs (v -. exact) /. exact in
        Alcotest.(check bool)
          (Printf.sprintf "within bucket tolerance (%g vs %g)" v exact)
          true (rel < 0.1)
      in
      close ~exact:500.0 h.Telemetry.h_p50;
      close ~exact:900.0 h.Telemetry.h_p90;
      close ~exact:990.0 h.Telemetry.h_p99;
      Alcotest.(check bool) "monotone" true
        (h.Telemetry.h_p50 <= h.Telemetry.h_p90
        && h.Telemetry.h_p90 <= h.Telemetry.h_p99
        && h.Telemetry.h_p99 <= h.Telemetry.h_max)

let test_histogram_underflow () =
  (* non-positive samples land in the underflow bucket but still count,
     and clamping keeps the reported quantile at the exact extremum *)
  let s = Telemetry.create () in
  Telemetry.observe s "neg" (-1.0);
  Telemetry.observe s "neg" Float.nan;
  (* dropped *)
  let snap = Telemetry.snapshot s in
  match histo snap "neg" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "nan dropped" 1 h.Telemetry.h_count;
      Alcotest.(check (float 1e-12)) "p50 clamped to sample" (-1.0)
        h.Telemetry.h_p50

(* --- spans -------------------------------------------------------------- *)

let span_calls snap path =
  match
    List.find_opt (fun sp -> sp.Telemetry.sp_path = path) snap.Telemetry.spans
  with
  | Some sp -> sp.Telemetry.sp_calls
  | None -> 0

let test_spans_nested () =
  let s = Telemetry.create () in
  Telemetry.span s "outer" (fun () ->
      Telemetry.span s "inner" (fun () -> ());
      Telemetry.span s "inner" (fun () -> ()));
  Telemetry.span s "outer" (fun () -> ());
  let snap = Telemetry.snapshot s in
  Alcotest.(check int) "outer calls" 2 (span_calls snap "outer");
  Alcotest.(check int) "nested path" 2 (span_calls snap "outer/inner");
  Alcotest.(check int) "no bare inner" 0 (span_calls snap "inner");
  let outer =
    List.find (fun sp -> sp.Telemetry.sp_path = "outer") snap.Telemetry.spans
  in
  Alcotest.(check bool) "total >= max >= 0" true
    (outer.Telemetry.sp_total_s >= outer.Telemetry.sp_max_s
    && outer.Telemetry.sp_max_s >= 0.0)

let test_spans_close_on_raise () =
  let s = Telemetry.create () in
  (try Telemetry.span s "boom" (fun () -> failwith "x") with Failure _ -> ());
  Telemetry.span s "after" (fun () -> ());
  let snap = Telemetry.snapshot s in
  Alcotest.(check int) "raising span recorded" 1 (span_calls snap "boom");
  (* the failed span was popped: "after" is a root path, not "boom/after" *)
  Alcotest.(check int) "stack unwound" 1 (span_calls snap "after");
  Alcotest.(check int) "no orphan nesting" 0 (span_calls snap "boom/after")

(* --- key-set rules ------------------------------------------------------- *)

let test_key_set_rules () =
  let s = Telemetry.create () in
  let c = Telemetry.counter "keyset.c" in
  Telemetry.count s "keyset.c" 0;
  Telemetry.add s c (-3);
  Alcotest.(check int) "no counter before a positive count" 0
    (List.length (Telemetry.snapshot s).Telemetry.counters);
  Telemetry.add s c 2;
  Telemetry.count s "keyset.c" 1;
  Alcotest.(check (list (pair string int))) "one cell behind handle and name"
    [ ("keyset.c", 3) ] (Telemetry.snapshot s).Telemetry.counters;
  Telemetry.observe s "keyset.nan" Float.nan;
  Telemetry.sample s (Telemetry.histogram "keyset.nan") Float.nan;
  match histo (Telemetry.snapshot s) "keyset.nan" with
  | None -> Alcotest.fail "a NaN-only histogram is listed"
  | Some h ->
      Alcotest.(check int) "with count 0" 0 h.Telemetry.h_count;
      Alcotest.(check (float 0.0)) "and zero extrema" 0.0
        (h.Telemetry.h_min +. h.Telemetry.h_max)

(* --- one snapshot, whatever the domain split ---------------------------- *)

(* A program of recording calls, over names and handles of the same
   metrics. Gauges see no NaN: a NaN first value would pin a shard's gauge
   whatever follows, so no merge order could be invariant. Samples are
   integers or halves, so their sums are exact in any order. *)
type op =
  | Count of int * int * bool (* metric, n, through its handle *)
  | Gauge of int * float * bool
  | Observe of int * float * bool
  | Span of int * op list

let metric_names = [| "prop.a"; "prop.b"; "prop.c" |]
let counters = Array.map Telemetry.counter metric_names
let gauges = Array.map Telemetry.gauge metric_names
let histograms = Array.map Telemetry.histogram metric_names

let rec exec sink = function
  | Count (m, n, true) -> Telemetry.add sink counters.(m) n
  | Count (m, n, false) -> Telemetry.count sink metric_names.(m) n
  | Gauge (m, v, true) -> Telemetry.raise_to sink gauges.(m) v
  | Gauge (m, v, false) -> Telemetry.gauge_max sink metric_names.(m) v
  | Observe (m, v, true) -> Telemetry.sample sink histograms.(m) v
  | Observe (m, v, false) -> Telemetry.observe sink metric_names.(m) v
  | Span (m, body) ->
      Telemetry.span sink metric_names.(m) (fun () -> List.iter (exec sink) body)

let gen_program : op list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let metric = int_range 0 2 in
  let number = map float_of_int (int_range (-1000) 100_000) in
  let gauge_value = oneof [ number; return infinity; return neg_infinity ] in
  let sample =
    oneof
      [ number;
        map (fun i -> float_of_int i /. 2.0) (int_range 1 10_000);
        return 0.0;
        return Float.nan;
        return infinity;
        return neg_infinity ]
  in
  let leaf =
    oneof
      [ map3 (fun m n h -> Count (m, n, h)) metric (int_range (-3) 1000) bool;
        map3 (fun m v h -> Gauge (m, v, h)) metric gauge_value bool;
        map3 (fun m v h -> Observe (m, v, h)) metric sample bool ]
  in
  let rec op depth =
    if depth = 0 then leaf
    else
      frequency
        [ (4, leaf);
          (1, map2 (fun m body -> Span (m, body)) metric
                (list_size (int_range 0 4) (op (depth - 1)))) ]
  in
  list_size (int_range 0 40) (op 2)

(* what a snapshot says apart from time *)
let untimed (snap : Telemetry.snapshot) =
  ( snap.Telemetry.counters,
    snap.Telemetry.gauges,
    snap.Telemetry.histograms,
    List.map (fun sp -> (sp.Telemetry.sp_path, sp.Telemetry.sp_calls))
      snap.Telemetry.spans )

(* [program] cut into [k] consecutive parts (cuts from [seeds]) *)
let split program k seeds =
  let n = List.length program in
  let cuts = List.sort_uniq compare (List.map (fun x -> x mod (n + 1)) seeds) in
  let cuts = List.filteri (fun i _ -> i < k - 1) cuts @ [ n ] in
  let _, parts =
    List.fold_left
      (fun (from, acc) upto ->
        (upto, List.filteri (fun i _ -> i >= from && i < upto) program :: acc))
      (0, []) cuts
  in
  List.rev parts

let prop_domain_split =
  QCheck2.Test.make ~name:"one snapshot whatever the domain split"
    ~count:(count_cases 150)
    QCheck2.Gen.(
      quad gen_program (int_range 1 4) (list_repeat 3 small_nat) (list_repeat 4 bool))
    (fun (program, k, seeds, decoys) ->
      let whole = Telemetry.create () in
      List.iter (exec whole) program;
      let shared = Telemetry.create () in
      List.mapi
        (fun i part ->
          Domain.spawn (fun () ->
              (* a domain that also records each call into a sink of its
                 own switches its cached shard between the two sinks *)
              let decoy = if List.nth decoys i then Some (Telemetry.create ()) else None in
              List.iter
                (fun op ->
                  Option.iter (fun d -> exec d op) decoy;
                  exec shared op)
                part))
        (split program k seeds)
      |> List.iter Domain.join;
      untimed (Telemetry.snapshot whole) = untimed (Telemetry.snapshot shared))

(* --- recording never changes pipeline output ---------------------------- *)

let messy_text =
  let st = Datagen.rng ~seed:91 in
  let text = Datagen.to_ndjson (Datagen.tweets st 120) in
  (Chaos.corrupt ~seed:910 ~rate:0.12 text).Chaos.text

let infer_fingerprint = function
  | Error e -> "error: " ^ e
  | Ok (i, (r : Resilient.ingest), _) ->
      String.concat "\n"
        (Jtype.Types.to_string i.Pipeline.jtype
         :: Lazy.force i.Pipeline.typescript
         :: Json.Printer.to_string (Lazy.force i.Pipeline.json_schema)
         :: Json.Printer.to_string (Resilient.report_to_json r.Resilient.report)
         :: List.map
              (fun d -> Json.Printer.to_string (Resilient.dead_letter_to_json d))
              r.Resilient.dead)

let test_determinism_infer () =
  List.iter
    (fun jobs ->
      let plain = Pipeline.infer_ndjson ~jobs messy_text in
      let sink = Telemetry.create () in
      let observed = Pipeline.infer_ndjson ~jobs ~telemetry:sink messy_text in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d output identical under recording" jobs)
        (infer_fingerprint plain)
        (infer_fingerprint observed);
      (* and the sink actually saw the pipeline *)
      let snap = Telemetry.snapshot sink in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d sink non-empty" jobs)
        true
        (counter snap "ingest.docs_ok" > 0))
    [ 1; 4 ]

let test_determinism_validate () =
  let st = Datagen.rng ~seed:92 in
  let text = Datagen.to_ndjson (Datagen.events st ~fields:6 80) in
  let root =
    match Pipeline.strict (Pipeline.infer_ndjson ~name:"Root" text) with
    | Ok (i, _, _) -> Lazy.force i.Pipeline.json_schema
    | Error m -> Alcotest.fail m
  in
  let render = function
    | Error e -> "error: " ^ e
    | Ok (failures, (r : Resilient.ingest), _) ->
        String.concat "\n"
          (Json.Printer.to_string (Resilient.report_to_json r.Resilient.report)
           :: List.map
                (fun (i, errs) ->
                  string_of_int i ^ ": "
                  ^ String.concat "; "
                      (List.map Jsonschema.Validate.string_of_error errs))
                failures)
  in
  List.iter
    (fun jobs ->
      let plain = Pipeline.validate_ndjson ~jobs ~root text in
      let sink = Telemetry.create () in
      let config =
        { Jsonschema.Validate.default_config with telemetry = sink }
      in
      let observed =
        Pipeline.validate_ndjson ~config ~jobs ~telemetry:sink ~root text
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d validation identical under recording" jobs)
        (render plain) (render observed);
      let snap = Telemetry.snapshot sink in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d keyword counters present" jobs)
        true
        (counter snap "validate.kw.type" > 0))
    [ 1; 4 ]

(* --- differential: Mison projection vs full parse ----------------------- *)

let field_pool = [ "a"; "b"; "c"; "id"; "payload" ]

let gen_doc : Json.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ map (fun i -> Json.Value.Int i) small_int;
        map (fun s -> Json.Value.String s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        return (Json.Value.Bool true);
        return Json.Value.Null;
        map (fun f -> Json.Value.Float f) (float_bound_exclusive 1000.0) ]
  in
  let* present = flatten_l (List.map (fun f -> pair (return f) bool) field_pool)
  in
  let fields = List.filter_map (fun (f, p) -> if p then Some f else None) present in
  let* vals = flatten_l (List.map (fun f -> pair (return f) scalar) fields) in
  return (Json.Value.Object vals)

let gen_corpus : (string list * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* docs = list_size (int_range 1 20) gen_doc in
  let* wanted =
    List.fold_right
      (fun f acc ->
        let* keep = bool in
        let* rest = acc in
        return (if keep then f :: rest else rest))
      field_pool (return [])
  in
  return (wanted, Datagen.to_ndjson docs)

let reference_projection ~fields text =
  (* full parse, then keep the wanted fields in record order *)
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match Json.Parser.parse line with
         | Ok (Json.Value.Object kvs) ->
             List.filter (fun (k, _) -> List.mem k fields) kvs
         | Ok _ | Error _ -> Alcotest.fail ("reference parse failed: " ^ line))

(* speculative probing can surface fields out of record order; compare as
   sorted assoc lists *)
let row_to_string row =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) row in
  Json.Printer.to_string (Json.Value.Object sorted)

let mison_differential =
  QCheck2.Test.make ~name:"mison projection == full parse projection"
    ~count:(count_cases 300) gen_corpus (fun (fields, text) ->
      let sink = Telemetry.create () in
      match
        Fastjson.Mison.project_ndjson_with_stats ~telemetry:sink
          { Fastjson.Mison.fields } text
      with
      | Error m -> QCheck2.Test.fail_reportf "mison errored: %s" m
      | Ok (rows, _stats) ->
          let expected = reference_projection ~fields text in
          if List.length rows <> List.length expected then
            QCheck2.Test.fail_reportf "row count %d vs %d" (List.length rows)
              (List.length expected);
          List.iter2
            (fun got want ->
              if row_to_string got <> row_to_string want then
                QCheck2.Test.fail_reportf "row mismatch: %s vs %s"
                  (row_to_string got) (row_to_string want))
            rows expected;
          (* byte accounting never exceeds the input *)
          let snap = Telemetry.snapshot sink in
          let input = counter snap "mison.input_bytes" in
          let pruned = counter snap "mison.bytes_pruned" in
          let mat = counter snap "mison.bytes_materialized" in
          if pruned + mat > input then
            QCheck2.Test.fail_reportf
              "pruned %d + materialized %d > input %d" pruned mat input;
          true)

(* --- budget causes regression ------------------------------------------- *)

let test_budget_causes () =
  let deep = "[[[[[[1]]]]]]" in
  let big =
    Printf.sprintf "{\"big\":\"%s\"}" (String.make 200 'x')
  in
  let lines =
    List.init 6 (fun i -> Printf.sprintf "{\"a\":%d}" i)
    @ [ deep; big; deep; big; big ]
  in
  let text = String.concat "\n" lines ^ "\n" in
  let budget =
    {
      Resilient.max_doc_bytes = Some 64;
      max_nodes = None;
      max_string_bytes = None;
      max_depth = 3;
      max_docs = None;
    }
  in
  let check_report label (r : Resilient.report) =
    Alcotest.(check int) (label ^ " ok") 6 r.Resilient.ok;
    Alcotest.(check int) (label ^ " killed") 5 r.Resilient.budget_killed;
    let causes =
      List.map
        (fun (v, n) -> (Json.Parser.violation_name v, n))
        r.Resilient.budget_causes
    in
    (* sorted by name: max-bytes < max-depth *)
    Alcotest.(check (list (pair string int)))
      (label ^ " causes")
      [ ("max-bytes", 3); ("max-depth", 2) ]
      causes;
    let rendered = Json.Printer.to_string (Resilient.report_to_json r) in
    Alcotest.(check bool) (label ^ " json key") true
      (let needle = "\"budget_by_cause\":{\"max-bytes\":3,\"max-depth\":2}" in
       let len_n = String.length needle and len_h = String.length rendered in
       let rec scan i =
         i + len_n <= len_h
         && (String.sub rendered i len_n = needle || scan (i + 1))
       in
       scan 0)
  in
  let seq = Resilient.ingest ~budget text in
  check_report "sequential" seq.Resilient.report;
  let _, par, _ = Result.get_ok (Pipeline.ingest_ndjson ~budget ~jobs:4 text) in
  check_report "jobs=4 merged" par.Resilient.report;
  (* a clean report renders without the key at all *)
  let clean = Resilient.ingest "{\"a\":1}\n" in
  let rendered =
    Json.Printer.to_string (Resilient.report_to_json clean.Resilient.report)
  in
  Alcotest.(check string) "clean report unchanged"
    "{\"ok\":1,\"quarantined\":0,\"budget_killed\":0,\"truncated\":false}"
    rendered

let () =
  Printf.printf "telemetry suite seed: %d\n%!" fuzz_seed;
  let qcheck t =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| fuzz_seed |]) t
  in
  Alcotest.run "telemetry"
    [ ("metrics",
       [ Alcotest.test_case "counters" `Quick test_counters;
         Alcotest.test_case "gauge max" `Quick test_gauge_max ]);
      ("histograms",
       [ Alcotest.test_case "empty" `Quick test_histogram_empty;
         Alcotest.test_case "single sample exact" `Quick
           test_histogram_single_sample;
         Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
         Alcotest.test_case "underflow + nan" `Quick test_histogram_underflow ]);
      ("spans",
       [ Alcotest.test_case "nested paths" `Quick test_spans_nested;
         Alcotest.test_case "closes on raise" `Quick test_spans_close_on_raise ]);
      ("sinks",
       [ Alcotest.test_case "key-set rules" `Quick test_key_set_rules;
         qcheck prop_domain_split ]);
      ("determinism",
       [ Alcotest.test_case "infer pipeline" `Quick test_determinism_infer;
         Alcotest.test_case "validate pipeline" `Quick
           test_determinism_validate ]);
      ("differential", [ qcheck mison_differential ]);
      ("budget causes",
       [ Alcotest.test_case "typed breakdown" `Quick test_budget_causes ]);
    ]
