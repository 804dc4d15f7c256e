(* Tests for Core.Parallel: the sharded execution engine must be
   byte-identical to the sequential path — same documents, same dead
   letters (order included), same reports, same inferred types — for any
   job count, on clean and chaos-corrupted input alike. *)

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
  Alcotest.(check (list int)) "order preserved (jobs=4)"
    (List.init 37 (fun i -> i * i))
    (Parallel.run ~jobs:4 thunks);
  Alcotest.(check (list int)) "jobs > tasks" [ 1; 2 ]
    (Parallel.run ~jobs:16 [ (fun () -> 1); (fun () -> 2) ]);
  Alcotest.(check (list int)) "empty" [] (Parallel.run ~jobs:4 [])

let test_run_propagates_exceptions () =
  match Parallel.run ~jobs:3 (List.init 8 (fun i () -> if i = 5 then failwith "boom" else i)) with
  | _ -> Alcotest.fail "exception must escape"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

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

let test_ingest_identical () =
  let reference = Resilient.ingest messy_text in
  Alcotest.(check bool) "corpus actually has dead letters" true
    (reference.Resilient.dead <> []);
  List.iter
    (fun jobs ->
      let r = Parallel.ingest ~jobs messy_text in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d byte-identical" jobs)
        (ingest_fingerprint reference) (ingest_fingerprint r))
    [ 1; 2; 4; 8 ]

let test_ingest_budget_identical () =
  let budget =
    { Resilient.default_budget with Resilient.max_doc_bytes = Some 512 }
  in
  let reference = Resilient.ingest ~budget messy_text in
  let r = Parallel.ingest ~budget ~jobs:4 messy_text in
  Alcotest.(check string) "budget kills identical"
    (ingest_fingerprint reference) (ingest_fingerprint r)

let test_ingest_max_docs_sequential_fallback () =
  (* the global document cap is order-dependent: parallel must defer *)
  let budget = { Resilient.default_budget with Resilient.max_docs = Some 5 } in
  let reference = Resilient.ingest ~budget clean_text in
  let r = Parallel.ingest ~budget ~jobs:4 clean_text in
  Alcotest.(check string) "truncation identical"
    (ingest_fingerprint reference) (ingest_fingerprint r);
  Alcotest.(check bool) "truncated" true r.Resilient.report.Resilient.truncated

let test_strict_first_error () =
  let reference = Resilient.parse_ndjson_strict messy_text in
  List.iter
    (fun jobs ->
      match (reference, Parallel.parse_ndjson_strict ~jobs messy_text) with
      | Error a, Error b ->
          Alcotest.(check string) (Printf.sprintf "jobs=%d same error" jobs) a b
      | Ok _, _ | _, Ok _ -> Alcotest.fail "corrupted corpus must error")
    [ 1; 4 ]

(* --- sharded inference ------------------------------------------------- *)

let test_infer_identical () =
  (* the tree engine's sharded counting fold against the paper's
     sequential folds: the [Types] fold for the type, the counting fold
     for the counts *)
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
      List.iter
        (fun jobs ->
          let label what =
            Printf.sprintf "%s %s jobs=%d" what
              (Jtype.Merge.equiv_to_string equiv) jobs
          in
          let i = Pipeline.infer ~equiv ~jobs docs in
          Alcotest.(check string) (label "type") reference
            (Jtype.Types.to_string i.Pipeline.jtype);
          Alcotest.(check string) (label "counting") ref_counting
            (Jtype.Counting.to_string i.Pipeline.counting))
        [ 2; 4; 8 ])
    [ Jtype.Merge.Kind; Jtype.Merge.Label ]

let test_pipeline_resilient_jobs () =
  let seq_inf, seq_r = Pipeline.infer_ndjson_resilient messy_text in
  let par_inf, par_r = Pipeline.infer_ndjson_resilient ~jobs:4 messy_text in
  Alcotest.(check string) "ingest identical"
    (ingest_fingerprint seq_r) (ingest_fingerprint par_r);
  match (seq_inf, par_inf) with
  | Some a, Some b ->
      Alcotest.(check string) "jtype" (Jtype.Types.to_string a.Pipeline.jtype)
        (Jtype.Types.to_string b.Pipeline.jtype);
      Alcotest.(check string) "counting"
        (Jtype.Counting.to_string a.Pipeline.counting)
        (Jtype.Counting.to_string b.Pipeline.counting);
      Alcotest.(check string) "json schema"
        (Json.Printer.to_string a.Pipeline.json_schema)
        (Json.Printer.to_string b.Pipeline.json_schema);
      Alcotest.(check string) "typescript" a.Pipeline.typescript b.Pipeline.typescript;
      Alcotest.(check string) "swift" a.Pipeline.swift b.Pipeline.swift
  | _ -> Alcotest.fail "both paths must infer"

(* --- sharded validation ------------------------------------------------ *)

let test_validate_identical () =
  let docs = (Resilient.ingest clean_text).Resilient.docs in
  let root =
    Json.Parser.parse_exn
      {|{"type": "object", "required": ["f0"],
         "properties": {"f0": {"type": "integer", "multipleOf": 3}}}|}
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
  let reference = Parallel.validate ~root docs in
  Alcotest.(check bool) "some failures exist" true (reference <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d failures identical" jobs)
        (render reference)
        (render (Parallel.validate ~jobs ~root docs)))
    [ 2; 4; 8 ];
  (* guarded text entry point *)
  let seq_r, seq_f = Pipeline.validate_ndjson ~root clean_text in
  let par_r, par_f = Pipeline.validate_ndjson ~jobs:4 ~root clean_text in
  Alcotest.(check string) "ndjson ingest identical"
    (ingest_fingerprint seq_r) (ingest_fingerprint par_r);
  Alcotest.(check string) "ndjson failures identical" (render seq_f) (render par_f)

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

let sup_ingest ?policy ?inject ?checkpoint ?resume ~jobs text =
  match
    Pipeline.ingest_ndjson_supervised ?policy ?inject ?checkpoint ?resume ~jobs
      text
  with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_supervisor_no_faults_identical () =
  (* supervision without faults is invisible: byte-identical to the plain
     parallel path, which is byte-identical to sequential *)
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
  let shard_letters =
    List.filter
      (fun (d : Resilient.dead_letter) ->
        match d.Resilient.kind with Resilient.Shard _ -> true | _ -> false)
      r.Resilient.dead
  in
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
        (String.length d.Resilient.cause >= String.length "chaos:worker@"
        && String.sub d.Resilient.cause 0 (String.length "chaos:worker@")
           = "chaos:worker@"))
    shard_letters

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

(* The determinism property of the ISSUE: for any seeded worker-fault plan
   and any jobs/retry-policy combination, the supervised run equals the
   plain sequential run restricted to surviving shards — plus exactly one
   Shard dead letter per poisoned shard. The oracle recomputes each
   surviving shard with the plain sequential ingester (no supervisor, no
   pool, no injection), so agreement pins the whole retry/merge machinery. *)
let prop_supervised_determinism =
  QCheck2.Test.make ~name:"supervised run = sequential minus poisoned shards"
    ~count:(count 20)
    QCheck2.Gen.(
      tup5 (int_range 0 1000) (float_range 0.0 1.0) bool (int_range 1 6)
        (int_range 0 3))
    (fun (seed, rate, permanent, jobs, retries) ->
      let inject = Chaos.worker_faults ~seed ~rate ~permanent () in
      let policy = test_policy ~retries () in
      let r, _ =
        sup_ingest ~policy ~inject ~jobs messy_text
      in
      (* the plan is pure, so which shards must be poisoned is computable
         without running anything *)
      let max_attempts = 1 + retries in
      let expect_poisoned shard =
        let rec all_fail attempt =
          attempt > max_attempts
          || (inject ~shard ~attempt <> None && all_fail (attempt + 1))
        in
        all_fail 1
      in
      let ss = Parallel.shards ~jobs messy_text in
      let surviving, poisoned_shards =
        List.partition
          (fun (i, _) -> not (expect_poisoned i))
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
      let got_parse, got_shard =
        List.partition
          (fun (d : Resilient.dead_letter) ->
            match d.Resilient.kind with Resilient.Parse _ -> true | _ -> false)
          (forget_attempts r).Resilient.dead
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

(* --- checkpoint/resume -------------------------------------------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "jsontool-ckpt" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let infer_fingerprint (inf : Pipeline.inferred option) (r : Resilient.ingest)
    (s : Pipeline.supervision) =
  String.concat "\n"
    [ (match inf with
      | None -> "<none>"
      | Some i ->
          Json.Printer.to_string (Jtype.Types.to_json i.Pipeline.jtype)
          ^ "\n"
          ^ Json.Printer.to_string (Jtype.Counting.to_json i.Pipeline.counting)
          ^ "\n"
          ^ Json.Printer.to_string i.Pipeline.json_schema
          ^ "\n" ^ i.Pipeline.typescript ^ "\n" ^ i.Pipeline.swift);
      ingest_fingerprint r;
      string_of_int r.Resilient.report.Resilient.poisoned;
      string_of_int s.Pipeline.sup_stats.Supervisor.poisoned ]

let sup_infer ?policy ?inject ?checkpoint ?resume ?engine ~jobs text =
  match
    Pipeline.infer_ndjson_supervised ?policy ?inject ?checkpoint ?resume
      ?engine ~jobs text
  with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_checkpoint_kill_and_resume () =
  (* run 1 is "killed": permanent faults poison some shards, the journal
     records only the completed ones. Run 2 resumes with healthy workers
     and must equal an uninterrupted run byte for byte. *)
  let jobs = 4 in
  let inf0, r0, s0 = sup_infer ~policy:(test_policy ~retries:0 ()) ~jobs messy_text in
  let reference = infer_fingerprint inf0 r0 s0 in
  with_temp_journal (fun path ->
      let inject = Chaos.worker_faults ~seed:5 ~rate:0.5 ~permanent:true () in
      let _, rk, sk =
        sup_infer ~policy:(test_policy ~retries:0 ()) ~inject ~checkpoint:path
          ~jobs messy_text
      in
      Alcotest.(check bool) "interrupted run lost shards" true
        (sk.Pipeline.sup_stats.Supervisor.poisoned > 0);
      Alcotest.(check bool) "but completed some" true
        (sk.Pipeline.sup_stats.Supervisor.poisoned
        < sk.Pipeline.sup_stats.Supervisor.shards);
      Alcotest.(check int) "interrupted run resumed nothing" 0 sk.Pipeline.sup_resumed;
      ignore rk;
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

let test_checkpoint_torn_tail () =
  (* a crash mid-write leaves a torn final line; resume must scrub it and
     recompute that shard, still byte-identical *)
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

let test_checkpoint_rejects_other_input () =
  with_temp_journal (fun path ->
      let _ = sup_ingest ~policy:(test_policy ~retries:0 ()) ~checkpoint:path ~jobs:2 messy_text in
      match
        Pipeline.ingest_ndjson_supervised ~policy:(test_policy ~retries:0 ())
          ~checkpoint:path ~resume:true ~jobs:2 clean_text
      with
      | Ok _ -> Alcotest.fail "resume against different input must be refused"
      | Error e ->
          let contains hay needle =
            let n = String.length needle and h = String.length hay in
            let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool) "error names the fingerprint" true
            (contains e "fingerprint"))

let test_checkpoint_rejects_other_engine () =
  (* a tree journal's shard payloads are meaningless to the streaming
     resume path (and vice versa): the header records the engine and a
     cross-engine resume must be refused, not silently merged *)
  with_temp_journal (fun path ->
      let _ =
        sup_infer ~policy:(test_policy ~retries:0 ()) ~checkpoint:path
          ~engine:`Tree ~jobs:2 messy_text
      in
      match
        Pipeline.infer_ndjson_supervised ~policy:(test_policy ~retries:0 ())
          ~checkpoint:path ~resume:true ~engine:`Streaming ~jobs:2 messy_text
      with
      | Ok _ -> Alcotest.fail "cross-engine resume must be refused"
      | Error e ->
          let contains hay needle =
            let n = String.length needle and h = String.length hay in
            let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
            at 0
          in
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
          match (inf0, inf1) with
          | Some a, Some b ->
              Alcotest.(check bool) "same type after resume" true
                (Jtype.Types.equal a.Pipeline.jtype b.Pipeline.jtype)
          | _ -> Alcotest.fail "inference must survive"))
    [ `Tree; `Streaming ]

let test_check_ndjson () =
  (* the drift check rides the same supervised machinery: inferred type plus
     a containment verdict, under both engines *)
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
        Pipeline.infer_ndjson_supervised ~policy:(test_policy ~retries:0 ())
          ~checkpoint:path ~resume:true ~jobs:2 messy_text
      with
      | Ok _ -> Alcotest.fail "resume under a different job tag must be refused"
      | Error _ -> ())

let () =
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "run order/results" `Quick test_run_order_and_results;
         Alcotest.test_case "exceptions" `Quick test_run_propagates_exceptions;
         Alcotest.test_case "shards cover input" `Quick test_shards_cover_input ]);
      ("ingest",
       [ Alcotest.test_case "chaos corpus identical" `Quick test_ingest_identical;
         Alcotest.test_case "budget kills identical" `Quick test_ingest_budget_identical;
         Alcotest.test_case "max_docs fallback" `Quick test_ingest_max_docs_sequential_fallback;
         Alcotest.test_case "strict first error" `Quick test_strict_first_error ]);
      ("inference",
       [ Alcotest.test_case "types identical" `Quick test_infer_identical;
         Alcotest.test_case "pipeline resilient" `Quick test_pipeline_resilient_jobs ]);
      ("validation",
       [ Alcotest.test_case "failures identical" `Quick test_validate_identical ]);
      ("supervision",
       [ Alcotest.test_case "no faults identical" `Quick test_supervisor_no_faults_identical;
         Alcotest.test_case "transient recovered" `Quick test_supervisor_transient_recovered;
         Alcotest.test_case "poison isolation" `Quick test_supervisor_poison_isolation;
         Alcotest.test_case "graceful degradation" `Quick test_supervisor_degradation;
         Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
         QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| fuzz_seed |])
           prop_supervised_determinism ]);
      ("checkpoint",
       [ Alcotest.test_case "kill and resume" `Quick test_checkpoint_kill_and_resume;
         Alcotest.test_case "torn tail" `Quick test_checkpoint_torn_tail;
         Alcotest.test_case "two-field payloads" `Quick
           test_checkpoint_two_field_payloads;
         Alcotest.test_case "rejects other input" `Quick test_checkpoint_rejects_other_input;
         Alcotest.test_case "rejects other job" `Quick test_checkpoint_rejects_other_job;
         Alcotest.test_case "rejects other engine" `Quick
           test_checkpoint_rejects_other_engine;
         Alcotest.test_case "check_ndjson verdicts" `Quick test_check_ndjson ]);
    ]
