(* Tests for the sharded executor (Core.Pipeline.run_shards) on the
   Core.Parallel runner: every run must be byte-identical to the sequential
   scan — same documents, same dead letters (order included), same
   reports, same inferred types and validation failures — for any job
   count, either engine, any supervision policy, interrupted and resumed or
   not, on clean and corrupted input alike; minus exactly the documents of
   shards that stay poisoned. *)

open Core

let dead_to_string d = Json.Printer.to_string (Resilient.dead_letter_to_json d)
let report_to_string r = Json.Printer.to_string (Resilient.report_to_json r)

let ingest_fingerprint (r : Resilient.ingest) =
  String.concat "\n"
    (report_to_string r.Resilient.report
     :: List.map dead_to_string r.Resilient.dead
    @ List.map Json.Printer.to_string r.Resilient.docs)

(* a messy corpus: seeded tweets run through the chaos harness *)
let messy_text =
  let st = Datagen.rng ~seed:77 in
  let text = Datagen.to_ndjson (Datagen.tweets st 400) in
  (Chaos.corrupt ~seed:770 ~rate:0.15 text).Chaos.text

let clean_text =
  let st = Datagen.rng ~seed:78 in
  Datagen.to_ndjson (Datagen.events st ~fields:12 500)

(* --- pool primitives --------------------------------------------------- *)

let test_run_order_and_results () =
  let thunks = List.init 37 (fun i () -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved (jobs=%d)" jobs)
        (List.init 37 (fun i -> i * i))
        (Parallel.run ~jobs thunks))
    [ 0; 1; 4 ];
  Alcotest.(check (list int)) "jobs > tasks" [ 1; 2 ]
    (Parallel.run ~jobs:16 [ (fun () -> 1); (fun () -> 2) ]);
  Alcotest.(check (list int)) "empty" [] (Parallel.run ~jobs:4 [])

(* every thunk runs even when some raise, and the first exception in thunk
   order is the one re-raised, whichever domain raised first *)
let test_run_propagates_exceptions () =
  List.iter
    (fun jobs ->
      let ran = Array.make 8 false in
      let thunks =
        List.init 8 (fun i () ->
            ran.(i) <- true;
            if i = 2 then failwith "first"
            else if i = 5 then failwith "second"
            else i)
      in
      (match Parallel.run ~jobs thunks with
       | _ -> Alcotest.fail "exception must escape"
       | exception Failure m ->
           Alcotest.(check string)
             (Printf.sprintf "first in thunk order (jobs=%d)" jobs) "first" m);
      Alcotest.(check (array bool))
        (Printf.sprintf "every thunk ran (jobs=%d)" jobs)
        (Array.make 8 true) ran)
    [ 1; 3; 16 ]

(* The calling domain is one of the [jobs] domains. At [jobs] 2, two thunks
   that each wait for the other to start both see it in time only if two
   domains run them at once, and then one of them must be the caller. *)
let test_run_on_caller () =
  let caller = (Domain.self () :> int) in
  let started = Atomic.make 0 in
  let thunk () =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    ((Domain.self () :> int), Atomic.get started = 2)
  in
  (match Parallel.run ~jobs:2 [ thunk; thunk ] with
   | [ (a, a_saw); (b, b_saw) ] ->
       Alcotest.(check bool) "both running at once" true (a_saw && b_saw);
       Alcotest.(check bool) "on two domains" true (a <> b);
       Alcotest.(check bool) "one of them the caller" true
         (a = caller || b = caller)
   | _ -> Alcotest.fail "two results");
  let ids =
    Parallel.run ~jobs:2
      (List.init 8 (fun _ () ->
           Unix.sleepf 0.002;
           (Domain.self () :> int)))
  in
  Alcotest.(check bool) "at most jobs domains" true
    (List.length (List.sort_uniq compare ids) <= 2)

(* OCaml 5.1 runs at most 128 domains. A helper that finishes frees its
   slot, so each thunk holds its domain until 128 thunks have started: the
   runner must then meet the limit, stop starting helpers, and let the
   domains already running take the rest. *)
let test_run_domain_limit () =
  let started = Atomic.make 0 in
  let thunk () =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get started < 128 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    (Domain.self () :> int)
  in
  let ids = Parallel.run ~jobs:200 (List.init 200 (fun _ -> thunk)) in
  Alcotest.(check int) "every thunk ran" 200 (List.length ids);
  Alcotest.(check bool) "at most 128 domains" true
    (List.length (List.sort_uniq compare ids) <= 128)

let test_shards_cover_input () =
  List.iter
    (fun jobs ->
      let ss = Parallel.shards ~jobs messy_text in
      Alcotest.(check bool) "at most jobs shards" true (List.length ss <= jobs);
      (* exact cover, in order *)
      let rec walk off line = function
        | [] -> Alcotest.(check int) "covers all bytes" (String.length messy_text) off
        | s :: rest ->
            Alcotest.(check int) "contiguous" off s.Parallel.s_off;
            Alcotest.(check int) "line number" line s.Parallel.s_line;
            let nl = ref 0 in
            String.iter (fun c -> if c = '\n' then incr nl)
              (String.sub messy_text s.Parallel.s_off s.Parallel.s_len);
            (* every cut sits just after a newline *)
            (if rest <> [] then
               Alcotest.(check char) "cut after newline" '\n'
                 messy_text.[s.Parallel.s_off + s.Parallel.s_len - 1]);
            walk (s.Parallel.s_off + s.Parallel.s_len) (line + !nl) rest
      in
      walk 0 1 ss)
    [ 1; 2; 3; 4; 8; 100 ]

(* --- sharded ingestion ------------------------------------------------- *)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* the ingest run with its documents folded back into the ingest record,
   comparable with [Resilient.ingest] *)
let ingest_run ?budget ?options ?policy ?inject ?checkpoint ?resume ~jobs text =
  let docs, ingest, sup =
    ok
      (Pipeline.ingest_ndjson ?budget ?options ?policy ?inject ?checkpoint
         ?resume ~jobs text)
  in
  ({ ingest with Resilient.docs }, sup)

let test_ingest_identical () =
  let reference = Resilient.ingest messy_text in
  Alcotest.(check bool) "corpus actually has dead letters" true
    (reference.Resilient.dead <> []);
  List.iter
    (fun jobs ->
      let r, _ = ingest_run ~jobs messy_text in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d byte-identical" jobs)
        (ingest_fingerprint reference) (ingest_fingerprint r))
    [ 1; 2; 4; 8 ]

let test_ingest_budget_identical () =
  let budget =
    { Resilient.default_budget with Resilient.max_doc_bytes = Some 512 }
  in
  let reference = Resilient.ingest ~budget messy_text in
  let r, _ = ingest_run ~budget ~jobs:4 messy_text in
  Alcotest.(check string) "budget kills identical"
    (ingest_fingerprint reference) (ingest_fingerprint r)


let test_ingest_max_docs_sequential_fallback () =
  (* the global document cap is order-dependent: one whole-input shard *)
  let budget = { Resilient.default_budget with Resilient.max_docs = Some 5 } in
  let reference = Resilient.ingest ~budget clean_text in
  let r, _ = ingest_run ~budget ~jobs:4 clean_text in
  Alcotest.(check string) "truncation identical"
    (ingest_fingerprint reference) (ingest_fingerprint r);
  Alcotest.(check bool) "truncated" true r.Resilient.report.Resilient.truncated

let test_strict_first_error () =
  let reference = Resilient.parse_ndjson_strict messy_text in
  List.iter
    (fun jobs ->
      match
        ( reference,
          Pipeline.strict
            (Pipeline.ingest_ndjson ~budget:Resilient.unbounded_budget ~jobs
               messy_text) )
      with
      | Error a, Error b ->
          Alcotest.(check string) (Printf.sprintf "jobs=%d same error" jobs) a b
      | Ok _, _ | _, Ok _ -> Alcotest.fail "corrupted corpus must error")
    [ 1; 4 ]

(* --- sharded inference ------------------------------------------------- *)

let test_infer_identical () =
  (* the tree engine's sharded counting fold against the sequential folds
     over the survivors of the sequential scan: the [Types] fold for the
     type, the counting fold for the counts, each of which must equal the
     paper's pairwise fold *)
  let docs = (Resilient.ingest messy_text).Resilient.docs in
  List.iter
    (fun equiv ->
      let reference =
        Jtype.Types.to_string (Inference.Parametric.infer ~equiv docs)
      in
      let ref_counting =
        Jtype.Counting.to_string
          (Inference.Parametric.infer_counting ~equiv docs)
      in
      Alcotest.(check string) "type fold = pairwise fold"
        (Pairwise.Seed.to_string (Pairwise.Seed.infer ~equiv docs))
        reference;
      Alcotest.(check string) "counting fold = pairwise fold"
        (Jtype.Counting.to_string (Pairwise.infer ~equiv docs))
        ref_counting;
      List.iter
        (fun jobs ->
          let label what =
            Printf.sprintf "%s %s jobs=%d" what
              (Jtype.Merge.equiv_to_string equiv) jobs
          in
          let i, _, _ =
            ok (Pipeline.infer_ndjson ~equiv ~engine:`Tree ~jobs messy_text)
          in
          Alcotest.(check string) (label "type") reference
            (Jtype.Types.to_string i.Pipeline.jtype);
          Alcotest.(check string) (label "counting") ref_counting
            (Jtype.Counting.to_string i.Pipeline.counting))
        [ 2; 4; 8 ];
      (* the sequential fold over the materialized collection *)
      let i = Pipeline.infer ~equiv docs in
      Alcotest.(check string) "collection type" reference
        (Jtype.Types.to_string i.Pipeline.jtype);
      Alcotest.(check string) "collection counting" ref_counting
        (Jtype.Counting.to_string i.Pipeline.counting))
    [ Jtype.Merge.Kind; Jtype.Merge.Label ]

let test_pipeline_resilient_jobs () =
  let seq_inf, seq_r, _ = ok (Pipeline.infer_ndjson messy_text) in
  let par_inf, par_r, _ = ok (Pipeline.infer_ndjson ~jobs:4 messy_text) in
  Alcotest.(check string) "ingest identical"
    (ingest_fingerprint seq_r) (ingest_fingerprint par_r);
  let a = seq_inf and b = par_inf in
  Alcotest.(check string) "jtype" (Jtype.Types.to_string a.Pipeline.jtype)
    (Jtype.Types.to_string b.Pipeline.jtype);
  Alcotest.(check string) "counting"
    (Jtype.Counting.to_string a.Pipeline.counting)
    (Jtype.Counting.to_string b.Pipeline.counting);
  Alcotest.(check string) "json schema"
    (Json.Printer.to_string (Lazy.force a.Pipeline.json_schema))
    (Json.Printer.to_string (Lazy.force b.Pipeline.json_schema));
  Alcotest.(check string) "typescript" (Lazy.force a.Pipeline.typescript)
    (Lazy.force b.Pipeline.typescript);
  Alcotest.(check string) "swift" (Lazy.force a.Pipeline.swift) (Lazy.force b.Pipeline.swift)

(* --- sharded validation ------------------------------------------------ *)

let render_failures failures =
  String.concat "\n"
    (List.map
       (fun (i, es) ->
         String.concat "\n"
           (List.map
              (fun e -> Printf.sprintf "%d: %s" i (Jsonschema.Validate.string_of_error e))
              es))
       failures)

let test_validate_identical () =
  let docs = (Resilient.ingest clean_text).Resilient.docs in
  let root =
    Json.Parser.parse_exn
      {|{"type": "object", "required": ["f0"],
         "properties": {"f0": {"type": "integer", "multipleOf": 3}}}|}
  in
  let reference =
    match Pipeline.validate_collection ~root docs with
    | Ok _ -> []
    | Error failures -> failures
  in
  Alcotest.(check bool) "some failures exist" true (reference <> []);
  List.iter
    (fun jobs ->
      List.iter
        (fun engine ->
          let failures, _, _ =
            ok (Pipeline.validate_ndjson ~engine ~jobs ~root clean_text)
          in
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d failures identical" jobs)
            (render_failures reference) (render_failures failures))
        [ `Tree; `Streaming ])
    [ 2; 4; 8 ];
  (* guarded text entry point, on a corpus with dead letters *)
  let seq_f, seq_r, _ = ok (Pipeline.validate_ndjson ~root messy_text) in
  let par_f, par_r, _ = ok (Pipeline.validate_ndjson ~jobs:4 ~root messy_text) in
  Alcotest.(check string) "ndjson ingest identical"
    (ingest_fingerprint seq_r) (ingest_fingerprint par_r);
  Alcotest.(check string) "ndjson failures identical" (render_failures seq_f)
    (render_failures par_f)

(* --- supervised execution ---------------------------------------------- *)

let fuzz_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 20250806

let count base =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> max 1 (base * n / 500)
  | _ -> base

(* zero backoff everywhere in tests: retry *semantics* are under test, not
   retry pacing *)
let test_policy ?timeout_ms ?degrade_threshold ~retries () =
  { Supervisor.default_policy with
    Supervisor.max_attempts = 1 + retries;
    timeout_ms;
    base_backoff_ms = 0.0;
    max_backoff_ms = 0.0;
    degrade_threshold }

(* dead letters record which attempt finally produced them (observability,
   not semantics); zero that out when comparing against a sequential
   reference whose letters are always attempt 1 *)
let forget_attempts (r : Resilient.ingest) =
  { r with
    Resilient.dead =
      List.map
        (fun (d : Resilient.dead_letter) -> { d with Resilient.attempts = 1 })
        r.Resilient.dead }

let sup_ingest = ingest_run

let test_supervisor_no_faults_identical () =
  (* supervision without faults is invisible: byte-identical to the
     sequential scan *)
  let reference = Resilient.ingest messy_text in
  List.iter
    (fun jobs ->
      let r, s = sup_ingest ~policy:(test_policy ~retries:2 ()) ~jobs messy_text in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d byte-identical" jobs)
        (ingest_fingerprint reference) (ingest_fingerprint r);
      Alcotest.(check int) "no retries" 0 s.Pipeline.sup_stats.Supervisor.retries)
    [ 1; 2; 4; 8 ]

let test_supervisor_transient_recovered () =
  (* worker_faults heals after at most 2 failed attempts, so 2 retries must
     recover every shard: no data loss, only retries *)
  let reference = Resilient.ingest messy_text in
  let inject = Chaos.worker_faults ~seed:5 ~rate:0.9 () in
  let r, s =
    sup_ingest ~policy:(test_policy ~retries:2 ()) ~inject ~jobs:4 messy_text
  in
  let s = s.Pipeline.sup_stats in
  Alcotest.(check bool) "faults actually injected" true (s.Supervisor.faults > 0);
  Alcotest.(check bool) "retries happened" true (s.Supervisor.retries > 0);
  Alcotest.(check int) "nothing poisoned" 0 s.Supervisor.poisoned;
  Alcotest.(check string) "identical modulo attempt counts"
    (ingest_fingerprint reference) (ingest_fingerprint (forget_attempts r))

let is_shard_letter (d : Resilient.dead_letter) =
  match d.Resilient.kind with Resilient.Shard _ -> true | Resilient.Parse _ -> false

let test_supervisor_poison_isolation () =
  (* permanent faults: the faulted shards are quarantined as dead letters
     with whole-input coordinates; every other shard is untouched *)
  let inject = Chaos.worker_faults ~seed:5 ~rate:0.5 ~permanent:true () in
  let jobs = 4 in
  let r, s = sup_ingest ~policy:(test_policy ~retries:1 ()) ~inject ~jobs messy_text in
  let s = s.Pipeline.sup_stats in
  Alcotest.(check bool) "some shards poisoned" true (s.Supervisor.poisoned > 0);
  Alcotest.(check bool) "not all shards poisoned" true
    (s.Supervisor.poisoned < s.Supervisor.shards);
  Alcotest.(check int) "report counts them" s.Supervisor.poisoned
    r.Resilient.report.Resilient.poisoned;
  let shard_letters = List.filter is_shard_letter r.Resilient.dead in
  Alcotest.(check int) "one letter per poisoned shard" s.Supervisor.poisoned
    (List.length shard_letters);
  let ss = Parallel.shards ~jobs messy_text in
  List.iter
    (fun (d : Resilient.dead_letter) ->
      Alcotest.(check bool) "letter sits on a shard boundary" true
        (List.exists
           (fun sh ->
             sh.Parallel.s_off = d.Resilient.byte_offset
             && sh.Parallel.s_line = d.Resilient.line)
           ss);
      Alcotest.(check int) "attempts = exhausted budget" 2 d.Resilient.attempts;
      Alcotest.(check bool) "cause is the injected site" true
        (String.starts_with ~prefix:"chaos:worker@" d.Resilient.cause))
    shard_letters

let test_poison_raw_prefix () =
  (* a poisoned shard's letter shows its first bytes the way a parse
     letter does: newlines blanked, at most 80 bytes *)
  let text =
    String.concat "" (List.init 40 (fun i -> Printf.sprintf "{\"a\":%d}\n" i))
  in
  let inject = Chaos.worker_faults ~seed:5 ~rate:0.3 ~permanent:true () in
  let r, _ = sup_ingest ~inject ~jobs:4 text in
  let letters = List.filter is_shard_letter r.Resilient.dead in
  Alcotest.(check bool) "a shard is poisoned" true (letters <> []);
  List.iter
    (fun (d : Resilient.dead_letter) ->
      let off = d.Resilient.byte_offset in
      Alcotest.(check string) "blanked prefix"
        (String.map
           (fun c -> if c = '\n' then ' ' else c)
           (String.sub text off (min 80 (String.length text - off))))
        d.Resilient.raw_prefix;
      Alcotest.(check bool) "no raw newline" false
        (String.contains d.Resilient.raw_prefix '\n'))
    letters;
  Alcotest.(check string) "first shard"
    "{\"a\":0} {\"a\":1} {\"a\":2} {\"a\":3} {\"a\":4} {\"a\":5} {\"a\":6} {\"a\":7} {\"a\":8} {\"a\":9} "
    (List.hd letters).Resilient.raw_prefix

let test_supervisor_degradation () =
  (* an impossible deadline poisons every shard in the parallel pass; the
     degradation fallback (sequential, deadline-free) then recovers all of
     them, so the job still produces the full result *)
  let reference = Resilient.ingest messy_text in
  let r, s =
    sup_ingest
      ~policy:(test_policy ~retries:0 ~timeout_ms:0.0 ~degrade_threshold:0.5 ())
      ~jobs:4 messy_text
  in
  let s = s.Pipeline.sup_stats in
  Alcotest.(check bool) "deadline fired" true (s.Supervisor.timeouts > 0);
  Alcotest.(check int) "fallback recovered every shard" s.Supervisor.shards
    s.Supervisor.degraded;
  Alcotest.(check int) "nothing poisoned" 0 s.Supervisor.poisoned;
  Alcotest.(check string) "identical after degradation, modulo attempts"
    (ingest_fingerprint reference) (ingest_fingerprint (forget_attempts r));
  (* same deadline without the fallback: everything is quarantined *)
  let r2, s2 =
    sup_ingest ~policy:(test_policy ~retries:0 ~timeout_ms:0.0 ()) ~jobs:4
      messy_text
  in
  Alcotest.(check int) "without fallback all shards poison"
    s2.Pipeline.sup_stats.Supervisor.shards
    s2.Pipeline.sup_stats.Supervisor.poisoned;
  Alcotest.(check int) "no documents survive" 0
    (List.length r2.Resilient.docs)

let test_backoff_deterministic () =
  let p = Supervisor.default_policy in
  List.iter
    (fun shard ->
      List.iter
        (fun attempt ->
          let a = Supervisor.backoff_ms p ~shard ~attempt in
          let b = Supervisor.backoff_ms p ~shard ~attempt in
          Alcotest.(check (float 0.0)) "same (shard, attempt), same delay" a b;
          Alcotest.(check bool) "within the cap" true
            (a >= 0.0 && a <= p.Supervisor.max_backoff_ms))
        [ 1; 2; 3; 7 ])
    [ 0; 1; 5 ];
  (* jitter actually spreads distinct shards retrying the same attempt *)
  let delays =
    List.map (fun shard -> Supervisor.backoff_ms p ~shard ~attempt:3) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "not all identical" true
    (List.exists (fun d -> d <> List.hd delays) delays)

(* which shards a pure fault plan leaves poisoned after [max_attempts] *)
let expect_poisoned inject ~max_attempts shard =
  let rec all_fail attempt =
    attempt > max_attempts
    || (inject ~shard ~attempt <> None && all_fail (attempt + 1))
  in
  all_fail 1

(* For any seeded worker-fault plan and any jobs/retry-policy combination,
   the supervised run equals the plain sequential run restricted to
   surviving shards — plus exactly one Shard dead letter per poisoned
   shard. The oracle recomputes each surviving shard with the plain
   sequential ingester (no supervisor, no pool, no injection), so agreement
   pins the whole retry/merge machinery. *)
let prop_supervised_determinism =
  QCheck2.Test.make ~name:"supervised run = sequential minus poisoned shards"
    ~count:(count 20)
    QCheck2.Gen.(
      tup5 (int_range 0 1000) (float_range 0.0 1.0) bool (int_range 1 6)
        (int_range 0 3))
    (fun (seed, rate, permanent, jobs, retries) ->
      let inject = Chaos.worker_faults ~seed ~rate ~permanent () in
      let policy = test_policy ~retries () in
      let r, _ = sup_ingest ~policy ~inject ~jobs messy_text in
      let ss = Parallel.shards ~jobs messy_text in
      let surviving, poisoned_shards =
        List.partition
          (fun (i, _) ->
            not (expect_poisoned inject ~max_attempts:(1 + retries) i))
          (List.mapi (fun i sh -> (i, sh)) ss)
      in
      let expected =
        List.map
          (fun (_, sh) ->
            let sub = String.sub messy_text sh.Parallel.s_off sh.Parallel.s_len in
            Resilient.ingest ~first_line:sh.Parallel.s_line
              ~base_offset:sh.Parallel.s_off sub)
          surviving
      in
      (* documents: exactly the surviving shards' documents, in order *)
      let got_docs = List.map Json.Printer.to_string r.Resilient.docs in
      let want_docs =
        List.concat_map
          (fun ing -> List.map Json.Printer.to_string ing.Resilient.docs)
          expected
      in
      (* dead letters: the surviving shards' parse letters at unchanged
         whole-input coordinates + one Shard letter per poisoned shard *)
      let got_shard, got_parse =
        List.partition is_shard_letter (forget_attempts r).Resilient.dead
      in
      let want_parse =
        List.concat_map (fun ing -> List.map dead_to_string ing.Resilient.dead)
          expected
      in
      got_docs = want_docs
      && List.sort compare (List.map dead_to_string got_parse)
         = List.sort compare want_parse
      && List.length got_shard = List.length poisoned_shards
      && List.for_all
           (fun (d : Resilient.dead_letter) ->
             List.exists
               (fun (_, sh) ->
                 sh.Parallel.s_off = d.Resilient.byte_offset
                 && sh.Parallel.s_line = d.Resilient.line)
               poisoned_shards)
           got_shard
      && r.Resilient.report.Resilient.ok = List.length got_docs
      && r.Resilient.report.Resilient.poisoned = List.length poisoned_shards)

(* --- one executor for every job ---------------------------------------- *)

(* A line that is a valid JSON prefix, cut at a random byte: no poison
   prefix, so the parser reads on into the lines after it. *)
let truncate_lines ~seed ~rate text =
  let st = Random.State.make [| seed |] in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let n = String.length line in
         if n > 1 && Random.State.float st 1.0 < rate then
           String.sub line 0 (1 + Random.State.int st (n - 1))
         else line)
  |> String.concat "\n"

(* orders with a few tweets mixed in, run through the chaos harness, then
   cut by bare truncations *)
let messy_corpus ~seed ~n ~chaos_rate ~cut_rate =
  let st = Datagen.rng ~seed in
  let docs =
    List.init n (fun i ->
        if i mod 7 = 3 then Datagen.tweet st else Datagen.order st)
  in
  let text =
    (Chaos.corrupt ~pad:2048 ~seed ~rate:chaos_rate (Datagen.to_ndjson docs))
      .Chaos.text
  in
  truncate_lines ~seed ~rate:cut_rate text

(* reads kinds, keys and counts, plus one value keyword *)
let orders_root =
  Json.Parser.parse_exn
    {|{"type": "object", "required": ["order_id", "quantity"],
       "properties": {
         "order_id": {"type": "integer"},
         "quantity": {"type": "integer", "maximum": 5},
         "customer": {"type": "object", "required": ["customer_city"]}}}|}

let budgets =
  [ Resilient.default_budget;
    { Resilient.default_budget with Resilient.max_doc_bytes = Some 1024 };
    { Resilient.default_budget with Resilient.max_depth = 3 };
    { Resilient.default_budget with Resilient.max_docs = Some 17 } ]

(* the shards the executor cuts *)
let shards_of ~budget ~jobs text =
  if text = "" then []
  else if budget.Resilient.max_docs <> None then
    [ { Parallel.s_off = 0; s_len = String.length text; s_line = 1 } ]
  else Parallel.shards ~jobs text

(* the sequential scan of each shard, in whole-input coordinates *)
let shard_references ~budget text shards =
  List.map
    (fun (sh : Parallel.shard) ->
      Resilient.ingest ~budget ~first_line:sh.Parallel.s_line
        ~base_offset:sh.Parallel.s_off
        (String.sub text sh.Parallel.s_off sh.Parallel.s_len))
    shards

let concat_ingests (parts : Resilient.ingest list) =
  { Resilient.docs = List.concat_map (fun r -> r.Resilient.docs) parts;
    dead = List.concat_map (fun r -> r.Resilient.dead) parts;
    report =
      List.fold_left
        (fun acc r -> Parallel.merge_reports acc r.Resilient.report)
        Resilient.empty_report parts }

(* the counting fold, checked against the paper's pairwise fold *)
let counting_string ~equiv docs =
  let c = Inference.Parametric.infer_counting ~equiv docs in
  if c <> Pairwise.infer ~equiv docs then
    QCheck2.Test.fail_reportf "counting fold differs from the pairwise fold";
  Jtype.Counting.to_string c

(* the type fold, checked against the paper's pairwise fold of plain types *)
let type_string ~equiv docs =
  let t = Jtype.Types.to_string (Inference.Parametric.infer ~equiv docs) in
  if t <> Pairwise.Seed.to_string (Pairwise.Seed.infer ~equiv docs) then
    QCheck2.Test.fail_reportf "type fold differs from the pairwise fold";
  t

(* every run kind on one corpus and one setting against the sequential
   references over the shards [poisoned] leaves; [tag] says where *)
let runs_agree ~tag ~budget ~jobs ~engine ?policy ?inject ?checkpoint ?resume
    ~poisoned text =
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_reportf "%s: %s" tag m) fmt in
  let shards = shards_of ~budget ~jobs text in
  let refs = shard_references ~budget text shards in
  let surviving =
    concat_ingests
      (List.filteri (fun i _ -> not (List.mem i poisoned)) refs)
  in
  let survivors = surviving.Resilient.docs in
  let check_ingest what (r : Resilient.ingest) =
    let shard_letters, parse_letters =
      List.partition is_shard_letter (forget_attempts r).Resilient.dead
    in
    if
      ingest_fingerprint { r with Resilient.dead = parse_letters; docs = [] }
      <> ingest_fingerprint
           { surviving with
             Resilient.docs = [];
             report =
               { surviving.Resilient.report with
                 Resilient.poisoned = List.length poisoned } }
    then fail "%s: dead letters or report differ" what;
    let starts =
      List.map
        (fun (d : Resilient.dead_letter) -> d.Resilient.byte_offset)
        shard_letters
    in
    let want =
      List.map
        (fun i -> (List.nth shards i).Parallel.s_off)
        (List.sort compare poisoned)
    in
    if starts <> want then fail "%s: poisoned shards differ" what
  in
  let journal kind =
    Option.map (fun path -> path ^ "." ^ kind) checkpoint
  in
  (* ingest: documents, dead letters and report *)
  let docs, ingest, _ =
    ok
      (Pipeline.ingest_ndjson ~budget ?policy ?inject
         ?checkpoint:(journal "ingest") ?resume ~jobs text)
  in
  check_ingest "ingest" ingest;
  if List.map Json.Printer.to_string docs
     <> List.map Json.Printer.to_string survivors
  then fail "ingest: documents differ";
  (* infer under both equivalences: the paper's folds of the survivors *)
  List.iter
    (fun equiv ->
      let e = Jtype.Merge.equiv_to_string equiv in
      let i, ingest, _ =
        ok
          (Pipeline.infer_ndjson ~equiv ~budget ?policy ?inject
             ?checkpoint:(journal ("infer-" ^ e)) ?resume ~engine ~jobs text)
      in
      check_ingest ("infer " ^ e) ingest;
      if Jtype.Types.to_string i.Pipeline.jtype <> type_string ~equiv survivors
      then fail "infer %s: type differs" e;
      if Jtype.Counting.to_string i.Pipeline.counting
         <> counting_string ~equiv survivors
      then fail "infer %s: counting type differs" e)
    [ Jtype.Merge.Kind; Jtype.Merge.Label ];
  (* validate: the interpreter over the survivors, indices included *)
  let failures, ingest, _ =
    ok
      (Pipeline.validate_ndjson ~budget ?policy ?inject
         ?checkpoint:(journal "validate") ?resume ~engine ~jobs
         ~root:orders_root text)
  in
  check_ingest "validate" ingest;
  let want =
    List.concat
      (List.mapi
         (fun i v ->
           match Jsonschema.Validate.validate ~root:orders_root v with
           | Ok () -> []
           | Error es -> [ (i, es) ])
         survivors)
  in
  if render_failures failures <> render_failures want then
    fail "validate: failures differ";
  true

let engine_name = function `Tree -> "tree" | `Streaming -> "streaming"

(* The executor property. Random messy corpora (chaos faults, bare
   truncations, budget kills), jobs 1-8, both engines, and three settings:
   no retry; retries under transient injected faults (shards whose every
   attempt faults stay poisoned); a permanent-fault kill journaled to a
   checkpoint, then its resume. Every run kind — ingest, infer under both
   equivalences, validate — equals its sequential reference minus exactly
   the documents of the shards that stay poisoned, and strict runs fail
   with the sequential strict scan's error. *)
let prop_one_executor =
  QCheck2.Test.make ~name:"every run = sequential reference minus poisoned"
    ~count:(count 40)
    ~print:(fun (seed, n, jobs, engine, b, mode) ->
      Printf.sprintf "seed=%d n=%d jobs=%d engine=%s budget=%d mode=%d" seed n
        jobs (engine_name engine) b mode)
    QCheck2.Gen.(
      tup6 (int_range 0 10_000) (int_range 0 80) (int_range 1 8)
        (oneofl [ `Tree; `Streaming ])
        (int_range 0 (List.length budgets - 1))
        (int_range 0 2))
    (fun (seed, n, jobs, engine, b, mode) ->
      let budget = List.nth budgets b in
      let text = messy_corpus ~seed ~n ~chaos_rate:0.1 ~cut_rate:0.3 in
      let shards = shards_of ~budget ~jobs text in
      (* the shard references together are the sequential scan *)
      if
        ingest_fingerprint (concat_ingests (shard_references ~budget text shards))
        <> ingest_fingerprint (Resilient.ingest ~budget text)
      then QCheck2.Test.fail_report "shards disagree with the sequential scan";
      let poisoned_by inject ~max_attempts =
        List.filter
          (expect_poisoned inject ~max_attempts)
          (List.init (List.length shards) Fun.id)
      in
      match mode with
      | 0 ->
          (* no retry, no faults; strict runs fail like the strict scan *)
          let strict_ref = Resilient.parse_ndjson_strict text in
          let strict_err r =
            match Pipeline.strict r with
            | Error e -> Some e
            | Ok _ -> None
          in
          let unbounded = Resilient.unbounded_budget in
          let want = match strict_ref with Error e -> Some e | Ok _ -> None in
          if
            strict_err (Pipeline.ingest_ndjson ~budget:unbounded ~jobs text) <> want
            || strict_err
                 (Pipeline.infer_ndjson ~budget:unbounded ~engine ~jobs text)
               <> want
            || strict_err
                 (Pipeline.validate_ndjson ~budget:unbounded ~engine ~jobs
                    ~root:orders_root text)
               <> want
          then QCheck2.Test.fail_report "strict error differs";
          runs_agree ~tag:"plain" ~budget ~jobs ~engine ~poisoned:[] text
      | 1 ->
          let retries = seed mod 3 in
          let inject = Chaos.worker_faults ~seed ~rate:0.5 () in
          runs_agree ~tag:"transient" ~budget ~jobs ~engine
            ~policy:(test_policy ~retries ()) ~inject
            ~poisoned:(poisoned_by inject ~max_attempts:(1 + retries))
            text
      | _ ->
          let path = Filename.temp_file "jsontool-exec" ".ndjson" in
          let kinds = [ "ingest"; "infer-kind"; "infer-label"; "validate" ] in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun k -> try Sys.remove (path ^ "." ^ k) with Sys_error _ -> ())
                kinds;
              try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              let inject = Chaos.worker_faults ~seed ~rate:0.5 ~permanent:true () in
              let policy = test_policy ~retries:0 () in
              runs_agree ~tag:"killed" ~budget ~jobs ~engine ~policy ~inject
                ~checkpoint:path
                ~poisoned:(poisoned_by inject ~max_attempts:1)
                text
              && runs_agree ~tag:"resumed" ~budget ~jobs ~engine ~policy
                   ~checkpoint:path ~resume:true ~poisoned:[] text))

(* Containment at any cut: a bare truncation leaves a line that is a valid
   JSON prefix, and where the input is cut into shards must not change
   which healthy lines after it survive. *)
let prop_truncation_containment =
  QCheck2.Test.make ~name:"bare truncations: jobs 1-8 = sequential scan"
    ~count:(count 30)
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 40))
    (fun (seed, n) ->
      let text = messy_corpus ~seed ~n ~chaos_rate:0.0 ~cut_rate:0.3 in
      let reference = Resilient.ingest text in
      let survivors = reference.Resilient.docs in
      let want_type = type_string ~equiv:Jtype.Merge.Kind survivors in
      List.for_all
        (fun jobs ->
          List.for_all
            (fun engine ->
              let i, ingest, _ =
                ok (Pipeline.infer_ndjson ~engine ~jobs text)
              in
              let failures, vingest, _ =
                ok (Pipeline.validate_ndjson ~engine ~jobs ~root:orders_root text)
              in
              let want_failures =
                match Pipeline.validate_collection ~compiled:false ~root:orders_root survivors with
                | Ok _ -> []
                | Error fs -> fs
              in
              let plain = { reference with Resilient.docs = [] } in
              ingest_fingerprint ingest = ingest_fingerprint plain
              && ingest_fingerprint vingest = ingest_fingerprint plain
              && Jtype.Types.to_string i.Pipeline.jtype = want_type
              && render_failures failures = render_failures want_failures)
            [ `Tree; `Streaming ])
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_truncation_repro () =
  (* a line that is a valid JSON prefix takes only itself down *)
  let text =
    String.concat "\n"
      [ {|{"a": "|} ^ String.make 40 'x' ^ {|"|}; {|{"b": 2}|}; "[1,";
        {|{"c": true}|}; {|{"d": [1, 2]}|} ]
    ^ "\n"
  in
  List.iter
    (fun jobs ->
      let r, _ = ingest_run ~jobs text in
      Alcotest.(check int) (Printf.sprintf "jobs=%d ok" jobs) 3
        r.Resilient.report.Resilient.ok;
      Alcotest.(check (list int)) "letters on their own lines" [ 1; 3 ]
        (List.map (fun (d : Resilient.dead_letter) -> d.Resilient.line)
           r.Resilient.dead);
      Alcotest.(check string) "same as the sequential scan"
        (ingest_fingerprint (Resilient.ingest text))
        (ingest_fingerprint r))
    [ 1; 2; 3; 4; 5 ]

(* a fold that raises on one shard: the run survives it as a dead letter *)
let test_shard_crash () =
  let text =
    String.concat "" (List.init 40 (fun i -> Printf.sprintf "{\"a\":%d}\n" i))
  in
  let crash_fold =
    { Pipeline.init = (fun () -> ref []);
      step =
        (fun docs ~options ~telemetry src ~pos ->
          match Json.Parser.parse_substring ~options ~telemetry src ~pos with
          | Ok (v, stop) ->
              docs := v :: !docs;
              Ok stop
          | Error e -> Error e);
      finish =
        (fun docs ->
          if List.mem (Json.Parser.parse_exn {|{"a":25}|}) !docs then
            failwith "boom"
          else List.length !docs);
      encode = (fun n -> Json.Value.Int n);
      decode =
        (function Json.Value.Int n -> Ok n | _ -> Error "not a count") }
  in
  let run () =
    Pipeline.run_shards ~jobs:4 ~job:"crash" ~engine:"tree" crash_fold text
  in
  let parts, ingest, sup = ok (run ()) in
  Alcotest.(check int) "one shard crashed" 1
    sup.Pipeline.sup_stats.Supervisor.crashes;
  Alcotest.(check int) "the others completed" 3 (List.length parts);
  Alcotest.(check int) "report counts it" 1
    ingest.Resilient.report.Resilient.poisoned;
  let d =
    match ingest.Resilient.dead with
    | [ d ] -> d
    | _ -> Alcotest.fail "one dead letter expected"
  in
  Alcotest.(check string) "kind" "shard:crash"
    (Resilient.kind_name d.Resilient.kind);
  Alcotest.(check string) "cause" "crash:Failure(\"boom\")" d.Resilient.cause;
  (match Pipeline.strict (run ()) with
  | Error e -> Alcotest.(check string) "strict error" d.Resilient.error e
  | Ok _ -> Alcotest.fail "a strict run must fail on the crashed shard");
  Alcotest.(check bool) "one line" false (String.contains d.Resilient.error '\n');
  Alcotest.(check bool) "names the shard" true
    (String.starts_with
       ~prefix:(Printf.sprintf "shard at line %d poisoned after 1 attempt: crash:" d.Resilient.line)
       d.Resilient.error)

(* --- dead-letter lines, computed independently --------------------------

   The scan counts newlines only up to the start of a document that becomes
   a dead letter (or of the [max_docs] cut). Whatever the job count, a
   letter's [line] must be 1 + the newlines before its [byte_offset],
   computed here from the text alone. *)

let line_of text off =
  let n = ref 1 in
  for i = 0 to off - 1 do
    if text.[i] = '\n' then incr n
  done;
  !n

(* blank and whitespace-only lines, CRLF endings, lines that are a valid
   JSON prefix followed by healthy lines, and broken lines. One document
   per line: a shard cut would split a document spread over lines. *)
let lines_text =
  String.concat ""
    [ "{\"a\": 1}\n"; "\n"; "   \n"; "{broken\n"; "{\"b\": 2}\r\n"; "\r\n";
      "[1,\n"; "{\"c\": true}\n"; "{\"d\": [1, 2]}\r\n"; "\t\n";
      "{\"e\":  [3,\t4]}\n"; "nope\r\n"; "\n"; "{\"f\": null}\n";
      "[2,\r\n"; "{\"g\": \"x\"}\n"; "{\"h\": }\n"; "\n\n"; "{\"i\": 9}" ]

let check_letter_lines ~what text (r : Resilient.ingest) =
  List.iter
    (fun (d : Resilient.dead_letter) ->
      let want = line_of text d.Resilient.byte_offset in
      Alcotest.(check int)
        (Printf.sprintf "%s: letter at byte %d" what d.Resilient.byte_offset)
        want d.Resilient.line)
    r.Resilient.dead

let test_dead_letter_lines () =
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "jobs=%d" jobs in
      let r, _ = ingest_run ~jobs lines_text in
      (* pinned by hand: the letters start on these lines *)
      Alcotest.(check (list int)) (what ^ ": letter lines") [ 4; 7; 12; 15; 17 ]
        (List.map (fun (d : Resilient.dead_letter) -> d.Resilient.line)
           r.Resilient.dead);
      Alcotest.(check int) (what ^ ": survivors") 8 r.Resilient.report.Resilient.ok;
      check_letter_lines ~what lines_text r;
      List.iter
        (fun engine ->
          let _, ingest, _ = ok (Pipeline.infer_ndjson ~engine ~jobs lines_text) in
          check_letter_lines ~what:(what ^ " infer") lines_text ingest)
        [ `Tree; `Streaming ];
      (* the document cut: one letter at the first document past the cap,
         on the line that document starts on *)
      List.iter
        (fun cap ->
          let budget =
            { Resilient.default_budget with Resilient.max_docs = Some cap }
          in
          let r, _ = ingest_run ~budget ~jobs lines_text in
          let what = Printf.sprintf "%s max_docs=%d" what cap in
          check_letter_lines ~what lines_text r;
          match List.rev r.Resilient.dead with
          | cut :: _ ->
              let line = line_of lines_text cut.Resilient.byte_offset in
              Alcotest.(check string) (what ^ ": cut message")
                (Printf.sprintf
                   "line %d: document budget of %d reached; remaining input dropped"
                   line cap)
                cut.Resilient.error;
              Alcotest.(check bool) (what ^ ": truncated") true
                r.Resilient.report.Resilient.truncated
          | [] -> Alcotest.fail (what ^ ": no cut"))
        [ 1; 3; 5; 7 ])
    [ 1; 2; 3; 4 ];
  let budget = { Resilient.default_budget with Resilient.max_docs = Some 5 } in
  let r, _ = ingest_run ~budget ~jobs:1 lines_text in
  Alcotest.(check string) "cut after five documents"
    "line 12: document budget of 5 reached; remaining input dropped"
    (List.nth r.Resilient.dead (List.length r.Resilient.dead - 1)).Resilient.error

(* --- the streamed shard fold against the pairwise fold -------------------

   A streaming shard adds a document typed from its shape at once and
   counts a cache hit on the entry, to be added with its multiplicity when
   the entry leaves the cache. These corpora drive every way an entry
   leaves: the wholesale reset at 4,096 entries (with hit counts pending),
   the switch-off after the 1,024-document warm-up, the end of the shard,
   and an attempt that fails mid-shard and is retried from a fresh state.
   The reference is [Pairwise.infer] over the documents the tree parser
   ingests under the same duplicate-key policy. *)

let kind_values =
  [| "null"; "true"; "1"; "2.5"; "\"s\""; "[1, 2.5, [true]]";
     "{\"x\": [{\"y\": 1}, {\"z\": null}]}" |]

(* five fields whose value kinds are the base-7 digits of [i]: 16,807
   distinct shapes; with [dup] a repeated [f0] when [i mod 7 = 3], which
   the duplicate-key policies resolve differently *)
let shape_doc ?(dup = false) i =
  let rec digits i n = if n = 0 then [] else (i mod 7) :: digits (i / 7) (n - 1) in
  let fields =
    List.mapi (fun j d -> Printf.sprintf "\"f%d\": %s" j kind_values.(d)) (digits i 5)
  in
  let fields =
    if dup && i mod 7 = 3 then
      fields @ [ Printf.sprintf "\"f0\": %s" kind_values.((i / 7) mod 7) ]
    else fields
  in
  "{" ^ String.concat ", " fields ^ "}\n"

(* 5,000 distinct shapes, each seen three times (twice in a row, once more
   further on), so hits outnumber misses while the cache passes 4,096
   entries; with broken lines and [[1,] prefix lines followed by healthy
   ones *)
let reset_text =
  let b = Buffer.create (1 lsl 20) in
  for i = 0 to 4999 do
    let doc = shape_doc ~dup:true i in
    Buffer.add_string b doc;
    Buffer.add_string b doc;
    Buffer.add_string b (shape_doc ~dup:true (i mod 97));
    if i mod 1000 = 500 then Buffer.add_string b "[1,\n";
    if i mod 1500 = 700 then Buffer.add_string b "{broken\n"
  done;
  Buffer.contents b

(* one shape 400 times (one miss, 399 hits), then distinct shapes: misses
   pass hits at document 1,024, where the cache switches off with the 399
   hits pending; past 1,100 the repeated shape comes back, typed at once *)
let switch_off_text n =
  let b = Buffer.create 65536 in
  for k = 0 to n - 1 do
    let i = if k < 400 || (k > 1100 && k mod 3 = 0) then 0 else 7 * k + 1 in
    Buffer.add_string b (shape_doc i);
    if k = 1200 then Buffer.add_string b "[1,\n"
  done;
  Buffer.contents b

let pairwise_reference ~options ~equiv text =
  Pairwise.infer ~equiv (Resilient.ingest ~options text).Resilient.docs

(* [reset_text]'s reference, shared by the tests that fold it *)
let reset_reference =
  let memo = Hashtbl.create 8 in
  fun ~options ~equiv ->
    let key = (options.Json.Parser.dup_keys, equiv) in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
        let c = pairwise_reference ~options ~equiv reset_text in
        Hashtbl.add memo key c;
        c

let counting_eq what want got =
  Alcotest.(check string) what (Jtype.Counting.to_string want)
    (Jtype.Counting.to_string got)

let with_dup_policies f =
  List.iter
    (fun dup_keys -> f { Json.Parser.default_options with dup_keys })
    Json.Parser.[ Keep_first; Keep_last; Reject; Keep_all ]

let equivs = Jtype.Merge.[ Kind; Label ]

let infer_counting ?telemetry ~options ~equiv ~engine ~jobs text =
  let i, _, _ =
    ok (Pipeline.infer_ndjson ?telemetry ~options ~equiv ~engine ~jobs text)
  in
  i.Pipeline.counting

let counter sink name =
  Option.value ~default:0
    (List.assoc_opt name (Telemetry.snapshot sink).Telemetry.counters)

let test_fold_wholesale_reset () =
  with_dup_policies (fun options ->
      List.iter
        (fun equiv ->
          let want = reset_reference ~options ~equiv in
          let sink = Telemetry.create () in
          counting_eq "streaming, jobs=1" want
            (infer_counting ~telemetry:sink ~options ~equiv ~engine:`Streaming
               ~jobs:1 reset_text);
          (* the corpus does what it is for: the cache passed 4,096 entries
             and was still on, with hits pending *)
          let hits = counter sink "stream.shape.hits"
          and misses = counter sink "stream.shape.misses" in
          Alcotest.(check bool)
            (Printf.sprintf "past the reset (%d misses)" misses)
            true (misses > 4096);
          Alcotest.(check bool)
            (Printf.sprintf "cache on (%d hits)" hits)
            true (hits > misses);
          List.iter
            (fun (engine, jobs) ->
              counting_eq
                (Printf.sprintf "%s, jobs=%d" (engine_name engine) jobs)
                want
                (infer_counting ~options ~equiv ~engine ~jobs reset_text))
            [ (`Streaming, 2); (`Tree, 1); (`Tree, 2) ])
        equivs)

let test_fold_switch_off () =
  List.iter
    (fun n ->
      let text = switch_off_text n in
      with_dup_policies (fun options ->
          List.iter
            (fun equiv ->
              let sink = Telemetry.create () in
              counting_eq (Printf.sprintf "%d documents" n)
                (pairwise_reference ~options ~equiv text)
                (infer_counting ~telemetry:sink ~options ~equiv
                   ~engine:`Streaming ~jobs:1 text);
              (* before the switch-off the one shape hits; after it every
                 document is a miss *)
              let hits = counter sink "stream.shape.hits" in
              Alcotest.(check int) (Printf.sprintf "%d documents: hits" n) 399 hits)
            equivs))
    [ 1023; 1024; 1025; 1500 ]

(* repeated keys below the top level on every document: at depth 2 ("b"),
   inside an array of records ("m"), and losing duplicates whose value is a
   record with a repeated key of its own ("w" loses under [Keep_last] and
   [Keep_all], "v" under [Keep_first]); the value kinds are the base-7
   digits of [i] *)
let nested_dup_doc i =
  let v j = kind_values.(i / int_of_float (7. ** float j) mod 7) in
  Printf.sprintf
    "{\"a\": {\"b\": %s, \"c\": %s, \"b\": %s}, \"l\": [{\"m\": %s, \"m\": %s}, {\"n\": %s}], \
     \"w\": {\"y\": %s, \"y\": 1}, \"v\": %s, \"w\": %s, \"v\": {\"y\": 1, \"y\": %s}}\n"
    (v 0) (v 1) (v 2) (v 3) (v 4) (v 0) (v 1) (v 2) (v 3) (v 4)

(* [reset_text]'s layout over [nested_dup_doc]: 4,500 distinct shapes, each
   seen three times, so the cache passes 4,096 entries while it is on *)
let nested_reset_text =
  let b = Buffer.create (1 lsl 21) in
  for i = 0 to 4499 do
    Buffer.add_string b (nested_dup_doc i);
    Buffer.add_string b (nested_dup_doc i);
    Buffer.add_string b (nested_dup_doc (i mod 97))
  done;
  Buffer.contents b

(* [switch_off_text]'s layout over [nested_dup_doc]: one shape 400 times,
   then distinct shapes until the cache switches off at document 1,024,
   with the first shape back every third document past 1,100 *)
let nested_switch_off_text =
  let b = Buffer.create 65536 in
  for k = 0 to 1499 do
    Buffer.add_string b
      (nested_dup_doc (if k < 400 || (k > 1100 && k mod 3 = 0) then 0 else (7 * k) + 1))
  done;
  Buffer.contents b

(* The shape-fed fold resolves repeated keys in one pass over the shape
   before it adds anything, and skips a losing member's value whole; under
   [Reject] every document here falls back to the tree parser, which
   rejects it. The hit and miss counts are the parent build's, before the
   fold walked shapes into the accumulator: (hits, misses) per corpus,
   (0, 0) under [Reject]. *)
let test_fold_nested_duplicates () =
  List.iter
    (fun (name, text, (hits, misses)) ->
      with_dup_policies (fun options ->
          List.iter
            (fun equiv ->
              let what =
                Printf.sprintf "%s, %s, %s" name
                  (Jtype.Merge.equiv_to_string equiv)
                  (match options.Json.Parser.dup_keys with
                   | Json.Parser.Keep_first -> "first"
                   | Json.Parser.Keep_last -> "last"
                   | Json.Parser.Reject -> "reject"
                   | Json.Parser.Keep_all -> "all")
              in
              let want = pairwise_reference ~options ~equiv text in
              let sink = Telemetry.create () in
              counting_eq what want
                (infer_counting ~telemetry:sink ~options ~equiv ~engine:`Streaming
                   ~jobs:1 text);
              let pinned =
                if options.Json.Parser.dup_keys = Json.Parser.Reject then (0, 0)
                else (hits, misses)
              in
              Alcotest.(check (pair int int)) (what ^ ": hits, misses") pinned
                (counter sink "stream.shape.hits", counter sink "stream.shape.misses");
              counting_eq (what ^ ", jobs=2") want
                (infer_counting ~options ~equiv ~engine:`Streaming ~jobs:2 text))
            equivs))
    [ ("reset", nested_reset_text, (8903, 4597));
      ("switch-off", nested_switch_off_text, (399, 1101)) ]

(* the inference fold, failing its [at]-th step once with a transient
   worker fault: the retry must start from a fresh state *)
let faulting_fold ~equiv ~engine ~at =
  let fold = Pipeline.infer_fold ~equiv engine in
  let steps = Atomic.make 0 in
  { fold with
    Pipeline.step =
      (fun state ~options ~telemetry src ~pos ->
        if Atomic.fetch_and_add steps 1 = at then
          raise (Supervisor.Abort (Supervisor.Fault "test:mid-shard"));
        fold.Pipeline.step state ~options ~telemetry src ~pos) }

let test_fold_fault_mid_shard () =
  with_dup_policies (fun options ->
      List.iter
        (fun equiv ->
          let want = reset_reference ~options ~equiv in
          List.iter
            (fun (engine, jobs) ->
              let parts, ingest, sup =
                ok
                  (Pipeline.run_shards ~options ~policy:(test_policy ~retries:1 ())
                     ~jobs ~job:"infer:test" ~engine:(engine_name engine)
                     (faulting_fold ~equiv ~engine ~at:6000)
                     reset_text)
              in
              let what = Printf.sprintf "%s, jobs=%d" (engine_name engine) jobs in
              Alcotest.(check int) (what ^ ": one retry") 1
                sup.Pipeline.sup_stats.Supervisor.retries;
              Alcotest.(check int) (what ^ ": nothing poisoned") 0
                ingest.Resilient.report.Resilient.poisoned;
              counting_eq what want
                (Jtype.Counting.merge_all ~equiv (List.map snd parts)))
            [ (`Streaming, 1); (`Streaming, 2); (`Tree, 1) ])
        equivs)

(* no production path builds a per-document [Types.t]: interning happens
   only when the merged counting type is erased *)
let test_fold_no_per_document_types () =
  (* 2,000 documents, each its own subset of eleven keys: 2,000 distinct
     types, one erased record of twelve nodes *)
  let text =
    String.concat ""
      (List.init 2000 (fun d ->
           let fields =
             List.filter_map
               (fun k ->
                 if (d + 1) land (1 lsl k) <> 0 then
                   Some (Printf.sprintf "\"k%d\": %d" k d)
                 else None)
               (List.init 11 Fun.id)
           in
           "{" ^ String.concat ", " fields ^ "}\n"))
  in
  List.iter
    (fun (engine, jobs) ->
      let sink = Telemetry.create () in
      let i, _, _ = ok (Pipeline.infer_ndjson ~telemetry:sink ~engine ~jobs text) in
      let nodes = counter sink "kernel.nodes" in
      let size = Jtype.Types.size i.Pipeline.jtype in
      Alcotest.(check bool)
        (Printf.sprintf "%s, jobs=%d: %d new nodes < erased size %d"
           (engine_name engine) jobs nodes size)
        true (nodes < size))
    [ (`Streaming, 1); (`Streaming, 2); (`Tree, 1); (`Tree, 2) ]

(* --- checkpoint/resume -------------------------------------------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "jsontool-ckpt" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let infer_fingerprint (i : Pipeline.inferred) (r : Resilient.ingest)
    (s : Pipeline.supervision) =
  String.concat "\n"
    [ Json.Printer.to_string (Jtype.Types.to_json i.Pipeline.jtype);
      Json.Printer.to_string (Jtype.Counting.to_json i.Pipeline.counting);
      Json.Printer.to_string (Lazy.force i.Pipeline.json_schema);
      Lazy.force i.Pipeline.typescript;
      Lazy.force i.Pipeline.swift;
      ingest_fingerprint r;
      string_of_int r.Resilient.report.Resilient.poisoned;
      string_of_int s.Pipeline.sup_stats.Supervisor.poisoned ]

let sup_infer ?policy ?inject ?checkpoint ?resume ?engine ~jobs text =
  ok (Pipeline.infer_ndjson ?policy ?inject ?checkpoint ?resume ?engine ~jobs text)

let test_checkpoint_kill_and_resume () =
  (* run 1 is "killed": permanent faults poison some shards, the journal
     records only the completed ones. Run 2 resumes with healthy workers
     and must equal an uninterrupted run byte for byte. *)
  let jobs = 4 in
  let inf0, r0, s0 = sup_infer ~policy:(test_policy ~retries:0 ()) ~jobs messy_text in
  let reference = infer_fingerprint inf0 r0 s0 in
  with_temp_journal (fun path ->
      let inject = Chaos.worker_faults ~seed:5 ~rate:0.5 ~permanent:true () in
      let _, _, sk =
        sup_infer ~policy:(test_policy ~retries:0 ()) ~inject ~checkpoint:path
          ~jobs messy_text
      in
      Alcotest.(check bool) "interrupted run lost shards" true
        (sk.Pipeline.sup_stats.Supervisor.poisoned > 0);
      Alcotest.(check bool) "but completed some" true
        (sk.Pipeline.sup_stats.Supervisor.poisoned
        < sk.Pipeline.sup_stats.Supervisor.shards);
      Alcotest.(check int) "interrupted run resumed nothing" 0 sk.Pipeline.sup_resumed;
      let inf2, r2, s2 =
        sup_infer ~policy:(test_policy ~retries:0 ()) ~checkpoint:path
          ~resume:true ~jobs messy_text
      in
      Alcotest.(check int) "completed shards restored from journal"
        (sk.Pipeline.sup_stats.Supervisor.shards
        - sk.Pipeline.sup_stats.Supervisor.poisoned)
        s2.Pipeline.sup_resumed;
      Alcotest.(check string) "resumed output byte-identical" reference
        (infer_fingerprint inf2 r2 s2))

let test_checkpoint_two_field_payloads () =
  (* older journals carry the erased type next to the counting type in
     every inference payload, as {"jtype": ..., "counting": ...}. Decoding
     reads only [counting], so such a journal resumes byte-identically under
     both engines. *)
  let jobs = 4 in
  let with_jtype line =
    match Result.map Checkpoint.entry_of_json (Json.Parser.parse line) with
    | Ok (Ok e) -> (
        match e.Checkpoint.e_payload with
        | Json.Value.Object [ ("counting", cj) ] ->
            let c = Result.get_ok (Jtype.Counting.of_json cj) in
            let payload =
              Json.Value.Object
                [ ("jtype", Jtype.Types.to_json (Jtype.Counting.erase c));
                  ("counting", cj) ]
            in
            Json.Printer.to_string
              (Checkpoint.entry_to_json { e with Checkpoint.e_payload = payload })
        | p -> Alcotest.failf "unexpected payload %s" (Json.Printer.to_string p))
    | _ -> line (* the header, or the empty string after the last newline *)
  in
  List.iter
    (fun engine ->
      let inf0, r0, s0 =
        sup_infer ~policy:(test_policy ~retries:0 ()) ~engine ~jobs messy_text
      in
      with_temp_journal (fun path ->
          let inject = Chaos.worker_faults ~seed:5 ~rate:0.5 ~permanent:true () in
          let _ =
            sup_infer ~policy:(test_policy ~retries:0 ()) ~inject
              ~checkpoint:path ~engine ~jobs messy_text
          in
          let text = In_channel.with_open_bin path In_channel.input_all in
          let rewritten =
            String.concat "\n" (List.map with_jtype (String.split_on_char '\n' text))
          in
          Out_channel.with_open_bin path (fun oc -> output_string oc rewritten);
          let inf2, r2, s2 =
            sup_infer ~policy:(test_policy ~retries:0 ()) ~checkpoint:path
              ~resume:true ~engine ~jobs messy_text
          in
          Alcotest.(check bool) "shards restored from the journal" true
            (s2.Pipeline.sup_resumed > 0);
          Alcotest.(check string) "resumed output byte-identical"
            (infer_fingerprint inf0 r0 s0) (infer_fingerprint inf2 r2 s2)))
    [ `Tree; `Streaming ]

(* A decoded journal may carry a count of 0: an entry whose counting type
   has zero-count classes (here a null and an array branch of count 0) is
   canonical, so it resumes, and its zeros reach the merged type as
   present classes. *)
let test_checkpoint_zero_counts () =
  let jobs = 4 and equiv = Jtype.Merge.Kind in
  let zeros = Jtype.Counting.(CUnion [ CNull 0; CArr (0, CBot) ]) in
  let with_zeros line =
    match Result.map Checkpoint.entry_of_json (Json.Parser.parse line) with
    | Ok (Ok e) -> (
        match e.Checkpoint.e_payload with
        | Json.Value.Object [ ("counting", cj) ] ->
            let c = Result.get_ok (Jtype.Counting.of_json cj) in
            let c = Jtype.Counting.merge_all ~equiv [ c; zeros ] in
            Json.Printer.to_string
              (Checkpoint.entry_to_json
                 { e with
                   Checkpoint.e_payload =
                     Json.Value.Object [ ("counting", Jtype.Counting.to_json c) ] })
        | p -> Alcotest.failf "unexpected payload %s" (Json.Printer.to_string p))
    | _ -> line
  in
  List.iter
    (fun engine ->
      let inf0, _, _ = sup_infer ~policy:(test_policy ~retries:0 ()) ~engine ~jobs messy_text in
      with_temp_journal (fun path ->
          let inject = Chaos.worker_faults ~seed:5 ~rate:0.5 ~permanent:true () in
          let _ =
            sup_infer ~policy:(test_policy ~retries:0 ()) ~inject ~checkpoint:path
              ~engine ~jobs messy_text
          in
          let text = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc
                (String.concat "\n" (List.map with_zeros (String.split_on_char '\n' text))));
          let inf2, _, s2 =
            sup_infer ~policy:(test_policy ~retries:0 ()) ~checkpoint:path ~resume:true
              ~engine ~jobs messy_text
          in
          Alcotest.(check bool) "shards restored from the journal" true
            (s2.Pipeline.sup_resumed > 0);
          Alcotest.(check string) "zero-count classes merged in"
            (Jtype.Counting.to_string
               (Jtype.Counting.merge_all ~equiv [ inf0.Pipeline.counting; zeros ]))
            (Jtype.Counting.to_string inf2.Pipeline.counting)))
    [ `Tree; `Streaming ]

let test_checkpoint_torn_tail () =
  (* a crash mid-write leaves a torn final line; resume must scrub it and
     recompute that shard, still byte-identical — the restored shards'
     documents come back from their journaled payloads *)
  let jobs = 4 in
  let reference = ingest_fingerprint (Resilient.ingest messy_text) in
  with_temp_journal (fun path ->
      let _ = sup_ingest ~policy:(test_policy ~retries:0 ()) ~checkpoint:path ~jobs messy_text in
      let len = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "journal has content" true (len > 40);
      (* tear the last 10 bytes off *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
      Unix.ftruncate fd (len - 10);
      Unix.close fd;
      let r, s =
        sup_ingest ~policy:(test_policy ~retries:0 ()) ~checkpoint:path
          ~resume:true ~jobs messy_text
      in
      let total = List.length (Parallel.shards ~jobs messy_text) in
      Alcotest.(check int) "exactly the torn entry recomputed" (total - 1)
        s.Pipeline.sup_resumed;
      Alcotest.(check int) "supervisor ran only the torn shard" 1
        s.Pipeline.sup_stats.Supervisor.shards;
      Alcotest.(check string) "byte-identical after torn-tail resume" reference
        (ingest_fingerprint r))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_checkpoint_rejects_other_input () =
  with_temp_journal (fun path ->
      let _ = sup_ingest ~policy:(test_policy ~retries:0 ()) ~checkpoint:path ~jobs:2 messy_text in
      match
        Pipeline.ingest_ndjson ~policy:(test_policy ~retries:0 ())
          ~checkpoint:path ~resume:true ~jobs:2 clean_text
      with
      | Ok _ -> Alcotest.fail "resume against different input must be refused"
      | Error e ->
          Alcotest.(check bool) "error names the fingerprint" true
            (contains e "fingerprint"))

let test_checkpoint_rejects_other_engine () =
  (* a journal records the engine that wrote it, and a cross-engine resume
     must be refused, not silently merged *)
  with_temp_journal (fun path ->
      let _ =
        sup_infer ~policy:(test_policy ~retries:0 ()) ~checkpoint:path
          ~engine:`Tree ~jobs:2 messy_text
      in
      match
        Pipeline.infer_ndjson ~policy:(test_policy ~retries:0 ())
          ~checkpoint:path ~resume:true ~engine:`Streaming ~jobs:2 messy_text
      with
      | Ok _ -> Alcotest.fail "cross-engine resume must be refused"
      | Error e ->
          Alcotest.(check bool) "error names the engine mismatch" true
            (contains e "engine mismatch"));
  (* same journal, same engine: resumes fine in both directions *)
  List.iter
    (fun engine ->
      with_temp_journal (fun path ->
          let inf0, _, _ =
            sup_infer ~policy:(test_policy ~retries:0 ()) ~checkpoint:path
              ~engine ~jobs:2 messy_text
          in
          let inf1, _, s1 =
            sup_infer ~policy:(test_policy ~retries:0 ()) ~checkpoint:path
              ~resume:true ~engine ~jobs:2 messy_text
          in
          Alcotest.(check bool) "all shards restored" true
            (s1.Pipeline.sup_resumed > 0
            && s1.Pipeline.sup_stats.Supervisor.shards = 0);
          Alcotest.(check bool) "same type after resume" true
            (Jtype.Types.equal inf0.Pipeline.jtype inf1.Pipeline.jtype)))
    [ `Tree; `Streaming ]

let test_check_ndjson () =
  (* the drift check rides the same executor: inferred type plus a
     containment verdict, under both engines *)
  let parse s = Result.get_ok (Json.Parser.parse s) in
  let text = "{\"a\":1}\n{\"a\":2,\"b\":true}\n" in
  List.iter
    (fun engine ->
      let ok_root = parse {|{"type":"object","properties":{"a":{"type":"integer"}}}|} in
      (match Pipeline.check_ndjson ~engine ~jobs:2 ~root:ok_root text with
      | Ok ({ chk_verdict = Some Jtype.Contain.Contained; _ }, _, _) -> ()
      | Ok ({ chk_verdict = v; _ }, _, _) ->
          Alcotest.failf "expected Contained, got %s"
            (match v with
            | None -> "no verdict"
            | Some v -> Jtype.Contain.verdict_to_string v)
      | Error e -> Alcotest.fail e);
      let bad_root = parse {|{"type":"object","properties":{"a":{"type":"string"}}}|} in
      match Pipeline.check_ndjson ~engine ~jobs:2 ~root:bad_root text with
      | Ok ({ chk_verdict = Some (Jtype.Contain.Not_contained w); _ }, _, _) ->
          Alcotest.(check bool) "witness rejected by the validator" false
            (Jsonschema.Validate.is_valid ~root:bad_root w)
      | Ok _ | Error _ -> Alcotest.fail "expected a witnessed refutation")
    [ `Tree; `Streaming ]

let test_checkpoint_rejects_other_job () =
  (* an ingest journal cannot resume an infer run *)
  with_temp_journal (fun path ->
      let _ = sup_ingest ~policy:(test_policy ~retries:0 ()) ~checkpoint:path ~jobs:2 messy_text in
      match
        Pipeline.infer_ndjson ~policy:(test_policy ~retries:0 ())
          ~checkpoint:path ~resume:true ~jobs:2 messy_text
      with
      | Ok _ -> Alcotest.fail "resume under a different job tag must be refused"
      | Error _ -> ());
  (* a validation journal resumes only under the config fields that decide
     its verdicts; the sink is not one of them *)
  let root = Json.Parser.parse_exn {|{"type": "object"}|} in
  let validate ?config ~resume path =
    Pipeline.validate_ndjson ?config ~policy:(test_policy ~retries:0 ())
      ~checkpoint:path ~resume ~jobs:2 ~root messy_text
  in
  let d = Jsonschema.Validate.default_config in
  List.iter
    (fun (config, refused) ->
      with_temp_journal (fun path ->
          ignore (validate ~resume:false path);
          Alcotest.(check bool) "refused" refused
            (Result.is_error (validate ~config ~resume:true path))))
    [ ({ d with telemetry = Telemetry.create () }, false);
      ({ d with assert_formats = true }, true);
      ({ d with max_ref_expansions = 8 }, true);
      ({ d with max_depth = 100 }, true) ]

let () =
  let qcheck p =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| fuzz_seed |]) p
  in
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "run order/results" `Quick test_run_order_and_results;
         Alcotest.test_case "exceptions" `Quick test_run_propagates_exceptions;
         Alcotest.test_case "caller runs thunks" `Quick test_run_on_caller;
         Alcotest.test_case "domain limit" `Quick test_run_domain_limit;
         Alcotest.test_case "shards cover input" `Quick test_shards_cover_input ]);
      ("ingest",
       [ Alcotest.test_case "chaos corpus identical" `Quick test_ingest_identical;
         Alcotest.test_case "budget kills identical" `Quick test_ingest_budget_identical;
         Alcotest.test_case "max_docs fallback" `Quick test_ingest_max_docs_sequential_fallback;
         Alcotest.test_case "strict first error" `Quick test_strict_first_error;
         Alcotest.test_case "truncated line contained" `Quick test_truncation_repro;
         qcheck prop_truncation_containment;
         Alcotest.test_case "dead-letter lines from the text" `Quick
           test_dead_letter_lines ]);
      ("inference",
       [ Alcotest.test_case "types identical" `Quick test_infer_identical;
         Alcotest.test_case "pipeline resilient" `Quick test_pipeline_resilient_jobs ]);
      ("validation",
       [ Alcotest.test_case "failures identical" `Quick test_validate_identical ]);
      ("executor",
       [ Alcotest.test_case "shard crash" `Quick test_shard_crash;
         qcheck prop_one_executor ]);
      (* no group name longer than "supervision": a longer one widens the
         listing's name column and truncates every printed test name
         differently *)
      ("fold",
       [ Alcotest.test_case "wholesale reset = pairwise" `Quick test_fold_wholesale_reset;
         Alcotest.test_case "switch-off boundary = pairwise" `Quick test_fold_switch_off;
         Alcotest.test_case "nested repeated keys = pairwise" `Quick
           test_fold_nested_duplicates;
         Alcotest.test_case "fault mid-shard = pairwise" `Quick test_fold_fault_mid_shard;
         Alcotest.test_case "no per-document types" `Quick
           test_fold_no_per_document_types ]);
      ("supervision",
       [ Alcotest.test_case "no faults identical" `Quick test_supervisor_no_faults_identical;
         Alcotest.test_case "transient recovered" `Quick test_supervisor_transient_recovered;
         Alcotest.test_case "poison isolation" `Quick test_supervisor_poison_isolation;
         Alcotest.test_case "poison raw prefix" `Quick test_poison_raw_prefix;
         Alcotest.test_case "graceful degradation" `Quick test_supervisor_degradation;
         Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
         qcheck prop_supervised_determinism ]);
      ("checkpoint",
       [ Alcotest.test_case "kill and resume" `Quick test_checkpoint_kill_and_resume;
         Alcotest.test_case "torn tail" `Quick test_checkpoint_torn_tail;
         Alcotest.test_case "two-field payloads" `Quick
           test_checkpoint_two_field_payloads;
         Alcotest.test_case "zero-count journal entry resumes" `Quick
           test_checkpoint_zero_counts;
         Alcotest.test_case "rejects other input" `Quick test_checkpoint_rejects_other_input;
         Alcotest.test_case "rejects other job" `Quick test_checkpoint_rejects_other_job;
         Alcotest.test_case "rejects other engine" `Quick
           test_checkpoint_rejects_other_engine;
         Alcotest.test_case "check_ndjson verdicts" `Quick test_check_ndjson ]);
    ]
