type inferred = {
  jtype : Jtype.Types.t;
  counting : Jtype.Counting.t;
  json_schema : Json.Value.t;
  typescript : string;
  swift : string;
}

let build_inferred ~name t c =
  {
    jtype = t;
    counting = c;
    json_schema = Jtype.Interop.to_schema_json t;
    typescript = Jtype.Typescript.declaration ~name t;
    swift = Jtype.Swift.declaration ~name t;
  }

let infer ?(equiv = Jtype.Merge.Kind) ?(name = "Root") ?(jobs = 1)
    ?(telemetry = Telemetry.nop) values =
  let t = Parallel.infer_type ~equiv ~jobs ~telemetry values in
  let c = Parallel.infer_counting ~equiv ~jobs ~telemetry values in
  build_inferred ~name t c

(* --- the streaming engine ----------------------------------------------- *)

type engine = [ `Tree | `Streaming ]

(* one token-level fold instance per shard: the factory shape matches
   [Parallel.ingest_with], so the interning scratch and the shape cache stay
   domain-local *)
let streaming_infer_doc ~equiv () =
  let scratch = Inference.Streaming.scratch () in
  fun ~options ~telemetry src ~pos ->
    Inference.Streaming.infer_tokens ~options ~telemetry ~scratch ~equiv src
      ~pos

(* A type whose documents count in many ways (arrays of many lengths) keeps
   only its first [max_variants] counting values as group keys; the others
   are merged one by one, as without grouping, so a lookup never costs more
   than [max_variants] comparisons. No type of the 100k-tweet corpus has
   more than 9. *)
let max_variants = 16

(* Reduce the per-document (type, counting) pairs by one counting fold and
   read the type off by erasure. Documents are grouped by the interned id
   of their type; a group member is confirmed by its counting value
   (physically equal when the shape cache answered both documents, else
   compared structurally: arrays of one element type can still count
   differently), and each distinct counting value is merged once, scaled by
   its multiplicity. That equals the per-document fold because the counting
   merge is commutative and associative on canonical values and
   [merge c c = scale 2 c]; erasure of the counting fold equals the [Types]
   fold, which the tree engine still runs as the reference. Equal types
   interned on two domains carry two ids and so form two groups, which
   costs one extra merge and changes nothing else. *)
let reduce_streamed ~equiv pairs =
  let groups = Hashtbl.create 64 in
  let distinct =
    List.fold_left
      (fun distinct ((t : Jtype.Types.t), c) ->
        let id = Jtype.Types.id t in
        let variants = Option.value (Hashtbl.find_opt groups id) ~default:[] in
        match List.find_opt (fun (c', _) -> c' == c || c' = c) variants with
        | Some (_, k) ->
            incr k;
            distinct
        | None ->
            let v = (c, ref 1) in
            if List.compare_length_with variants max_variants < 0 then
              Hashtbl.replace groups id (v :: variants);
            v :: distinct)
      [] pairs
  in
  let c =
    Jtype.Counting.merge_all ~equiv
      (List.rev_map (fun (c, k) -> Jtype.Counting.scale !k c) distinct)
  in
  (Jtype.Counting.erase c, c)

(* The telemetry keeps the tree path's sequential values: [infer.merge_ops]
   counts the merges of both of its folds, [infer.union_width] samples the
   final type. *)
let merge_streamed ~equiv ~telemetry pairs =
  let t, c =
    Telemetry.span telemetry "infer" (fun () -> reduce_streamed ~equiv pairs)
  in
  if Telemetry.is_recording telemetry then begin
    Telemetry.count telemetry "infer.merge_ops"
      (2 * max 0 (List.length pairs - 1));
    Telemetry.observe telemetry "infer.union_width"
      (float_of_int (Inference.Parametric.union_width t))
  end;
  (t, c)

let infer_ndjson ?(equiv = Jtype.Merge.Kind) ?(name = "Root")
    ?(engine = `Streaming) ?(jobs = 1) ?telemetry text =
  match engine with
  | `Tree -> (
      match Parallel.parse_ndjson_strict ~jobs ?telemetry text with
      | Error msg -> Error msg
      | Ok docs -> Ok (infer ~equiv ~name ~jobs ?telemetry docs))
  | `Streaming -> (
      let tele = Option.value telemetry ~default:Telemetry.nop in
      Parallel.with_kernel_stats tele @@ fun () ->
      let pairs, dead, _report =
        Parallel.ingest_with ~budget:Resilient.unbounded_budget ~jobs
          ~telemetry:tele
          ~parse_doc:(streaming_infer_doc ~equiv)
          text
      in
      match dead with
      | d :: _ -> Error d.Resilient.error
      | [] ->
          let t, c = merge_streamed ~equiv ~telemetry:tele pairs in
          Ok (build_inferred ~name t c))

let infer_ndjson_resilient ?(equiv = Jtype.Merge.Kind) ?name ?budget
    ?(engine = `Streaming) ?(jobs = 1) ?telemetry text =
  match engine with
  | `Tree ->
      let r = Parallel.ingest ?budget ~jobs ?telemetry text in
      let inferred =
        match r.Resilient.docs with
        | [] -> None
        | docs -> Some (infer ~equiv ?name ~jobs ?telemetry docs)
      in
      (inferred, r)
  | `Streaming ->
      let tele = Option.value telemetry ~default:Telemetry.nop in
      Parallel.with_kernel_stats tele @@ fun () ->
      let pairs, dead, report =
        Parallel.ingest_with ?budget ~jobs ~telemetry:tele
          ~parse_doc:(streaming_infer_doc ~equiv)
          text
      in
      let inferred =
        match pairs with
        | [] -> None
        | _ ->
            let t, c = merge_streamed ~equiv ~telemetry:tele pairs in
            Some
              (build_inferred ~name:(Option.value name ~default:"Root") t c)
      in
      (inferred, { Resilient.docs = []; dead; report })

let validate_collection ?config ?compiled ?(jobs = 1) ?telemetry ~root values =
  let failures =
    Parallel.validate ?config ?compiled ~jobs ?telemetry ~root values
  in
  if failures = [] then Ok (List.length values) else Error failures

(* the fused walk needs a compiled plan: when compilation is off or the
   schema is malformed (every document must fail with the compiler's error
   list), validation falls back to the tree engine *)
let streaming_plan ~compiled ~engine ~telemetry root =
  match engine with
  | `Tree -> None
  | `Streaming when not compiled -> None
  | `Streaming -> (
      match Jsonschema.Compile.plan_for ?telemetry root with
      | Ok plan -> Some plan
      | Error _ -> None)

(* one verdict cache per shard, like [streaming_infer_doc]'s scratch *)
let streaming_validate_doc ?config plan () =
  let scratch = Jsonschema.Compile.scratch () in
  fun ~options ~telemetry src ~pos ->
    Jsonschema.Compile.run_stream ?config ~options ~telemetry ~scratch plan src
      ~pos

let indexed_failures verdicts =
  List.mapi
    (fun i v -> match v with Ok () -> None | Error es -> Some (i, es))
    verdicts
  |> List.filter_map Fun.id

let validate_ndjson ?config ?compiled ?budget ?(engine = `Streaming)
    ?(jobs = 1) ?telemetry ~root text =
  match streaming_plan ~compiled:(compiled <> Some false) ~engine ~telemetry root with
  | None ->
      let r = Parallel.ingest ?budget ~jobs ?telemetry text in
      let failures =
        Parallel.validate ?config ?compiled ~jobs ?telemetry ~root
          r.Resilient.docs
      in
      (r, failures)
  | Some plan ->
      let verdicts, dead, report =
        Parallel.ingest_with ?budget ~jobs
          ?telemetry
          ~parse_doc:(streaming_validate_doc ?config plan)
          text
      in
      ({ Resilient.docs = []; dead; report }, indexed_failures verdicts)

let validate_ndjson_strict ?config ?compiled ?(engine = `Streaming)
    ?(jobs = 1) ?telemetry ~root text =
  match streaming_plan ~compiled:(compiled <> Some false) ~engine ~telemetry root with
  | None -> (
      match Parallel.parse_ndjson_strict ~jobs ?telemetry text with
      | Error msg -> Error msg
      | Ok docs ->
          Ok
            ( List.length docs,
              Parallel.validate ?config ?compiled ~jobs ?telemetry ~root docs ))
  | Some plan -> (
      let verdicts, dead, _report =
        Parallel.ingest_with ~budget:Resilient.unbounded_budget ~jobs
          ?telemetry
          ~parse_doc:(streaming_validate_doc ?config plan)
          text
      in
      match dead with
      | d :: _ -> Error d.Resilient.error
      | [] -> Ok (List.length verdicts, indexed_failures verdicts))

(* --- supervised sharded execution with checkpoint/resume ---------------- *)

type supervision = {
  sup_stats : Supervisor.stats;
  sup_resumed : int;
}

(* a poisoned shard becomes one dead letter in whole-input coordinates, so
   quarantine triage reads the same whether a single document or a whole
   shard was lost *)
let poison_letter ~(sh : Parallel.shard) ~failure ~attempts text =
  let len = min 80 sh.Parallel.s_len in
  { Resilient.line = sh.Parallel.s_line;
    byte_offset = sh.Parallel.s_off;
    error =
      Printf.sprintf "shard at line %d poisoned after %d attempt%s: %s"
        sh.Parallel.s_line attempts
        (if attempts = 1 then "" else "s")
        (Supervisor.failure_describe failure);
    kind = Resilient.Shard (Supervisor.failure_label failure);
    cause = Supervisor.failure_describe failure;
    attempts;
    raw_prefix = String.sub text sh.Parallel.s_off len }

(* Run one shard computation per shard under the supervisor, journaling
   each completed shard. [run_shard] receives the resolved budget/options,
   the shard descriptor and its substring, and returns the shard's ingest
   record (dead letters + report; the tree engine also carries documents,
   the streaming engine journals an empty document list) plus a
   pipeline-specific JSON payload (partial inference, local validation
   failures). Returns per-shard results in shard order: completed shards
   carry (ingest, payload-json, resumed?), poisoned ones their failure.
   Callers decode the payload back from JSON for resumed and fresh shards
   alike, so both take the identical code path — that, plus exact JSON
   round-trips, is what makes resume byte-identical. *)
let supervised_engine ?(budget = Resilient.default_budget) ?options
    ?(policy = Supervisor.default_policy) ?inject ?checkpoint ?(resume = false)
    ?(jobs = 1) ?(telemetry = Telemetry.nop) ~job ~engine ~run_shard text =
  let shards =
    (* a document-count budget is a global order-dependent cap: it cannot
       be applied per shard, so the whole input becomes one shard *)
    if String.length text = 0 then []
    else if budget.Resilient.max_docs <> None then
      [ { Parallel.s_off = 0; s_len = String.length text; s_line = 1 } ]
    else Parallel.shards ~jobs text
  in
  let journal_r =
    match checkpoint with
    | None -> Ok (None, [])
    | Some path -> (
        match Checkpoint.start ~path ~resume ~job ~engine ~input:text with
        | Ok (j, entries) -> Ok (Some j, entries)
        | Error e -> Error e)
  in
  match journal_r with
  | Error e -> Error e
  | Ok (journal, entries) ->
      let find_entry (sh : Parallel.shard) =
        List.find_opt
          (fun e ->
            e.Checkpoint.e_off = sh.Parallel.s_off
            && e.Checkpoint.e_len = sh.Parallel.s_len
            && e.Checkpoint.e_line = sh.Parallel.s_line)
          entries
      in
      let tagged = List.map (fun sh -> (sh, find_entry sh)) shards in
      let resumed_n =
        List.fold_left
          (fun n (_, e) -> if e = None then n else n + 1)
          0 tagged
      in
      if resumed_n > 0 then
        Telemetry.count telemetry "checkpoint.resumed_shards" resumed_n;
      let pending =
        List.concat
          (List.mapi
             (fun i (sh, e) -> if e = None then [ (i, sh) ] else [])
             tagged)
      in
      (* pending shards keep their *global* index, so a deterministic fault
         plan (Chaos.worker_faults) hits the same shards in a resumed run
         as in the original — and never hits already-journaled ones *)
      let globals = Array.of_list (List.map fst pending) in
      let inject =
        Option.map
          (fun plan ~shard ~attempt -> plan ~shard:globals.(shard) ~attempt)
          inject
      in
      (* the journal is shared across pool domains; entries land in
         completion order, which is fine — resume matches by coordinates,
         not position *)
      let jmutex = Mutex.create () in
      let record (sh : Parallel.shard) ing pjson =
        match journal with
        | None -> ()
        | Some j ->
            Mutex.lock jmutex;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock jmutex)
              (fun () ->
                Checkpoint.record j
                  { Checkpoint.e_off = sh.Parallel.s_off;
                    e_len = sh.Parallel.s_len;
                    e_line = sh.Parallel.s_line;
                    e_ingest = ing;
                    e_payload = pjson })
      in
      let tasks =
        List.map
          (fun (_, (sh : Parallel.shard)) ->
            fun ~attempt ~tick ->
             let sub = String.sub text sh.Parallel.s_off sh.Parallel.s_len in
             let ing, pjson =
               run_shard ~budget ~options ~telemetry ~attempt ~tick sh sub
             in
             record sh ing pjson;
             (ing, pjson))
          pending
      in
      let outcomes, stats = Supervisor.run ~policy ~telemetry ?inject ~jobs tasks in
      let rec zip tagged outcomes =
        match (tagged, outcomes) with
        | [], _ -> []
        | (sh, Some e) :: rest, _ ->
            (sh, `Ok (e.Checkpoint.e_ingest, e.Checkpoint.e_payload, true))
            :: zip rest outcomes
        | (sh, None) :: rest, Supervisor.Done { value = (ing, pjson); _ } :: out ->
            (sh, `Ok (ing, pjson, false)) :: zip rest out
        | (sh, None) :: rest, Supervisor.Poisoned { failure; attempts } :: out ->
            (sh, `Poisoned (failure, attempts)) :: zip rest out
        | (_, None) :: _, [] -> assert false (* one outcome per pending shard *)
      in
      let results = zip tagged outcomes in
      (match journal with Some j -> Checkpoint.close j | None -> ());
      Ok (results, { sup_stats = stats; sup_resumed = resumed_n })

(* the tree engine's shard computation: resilient ingest, then [encode]
   over the materialized documents *)
let tree_run_shard encode ~budget ~options ~telemetry ~attempt ~tick
    (sh : Parallel.shard) sub =
  let ing =
    Resilient.ingest ~budget ?options ~first_line:sh.Parallel.s_line
      ~base_offset:sh.Parallel.s_off ~attempt ~tick ~telemetry sub
  in
  (ing, encode ing)

(* the streaming engine's shard computation: a token-level fold with no
   document materialization. Dead letters and the report are byte-identical
   to the tree shard's by [ingest_with]'s contract; the journaled ingest
   record carries an empty document list, which is why the payload — not
   the journal's documents — is what downstream decoding consumes. *)
let streaming_run_shard parse_doc finish ~budget ~options ~telemetry ~attempt
    ~tick (sh : Parallel.shard) sub =
  let payloads, dead, report =
    Resilient.ingest_with ~budget ?options ~first_line:sh.Parallel.s_line
      ~base_offset:sh.Parallel.s_off ~attempt ~tick ~telemetry
      ~parse_doc:(parse_doc ()) sub
  in
  ({ Resilient.docs = []; dead; report }, finish payloads)

(* fuse per-shard results into one ingest: completed shards contribute
   their documents and dead letters, poisoned shards one synthetic letter
   each; global dead-letter order and summed reports exactly as the
   unsupervised parallel path produces them *)
let merge_supervised results text =
  let docs =
    List.concat_map
      (fun (_, r) ->
        match r with
        | `Ok ((ing : Resilient.ingest), _, _) -> ing.Resilient.docs
        | `Poisoned _ -> [])
      results
  in
  let dead =
    List.concat_map
      (fun (sh, r) ->
        match r with
        | `Ok ((ing : Resilient.ingest), _, _) -> ing.Resilient.dead
        | `Poisoned (failure, attempts) ->
            [ poison_letter ~sh ~failure ~attempts text ])
      results
    |> List.stable_sort Parallel.dead_order
  in
  let report =
    List.fold_left
      (fun acc (_, r) ->
        match r with
        | `Ok ((ing : Resilient.ingest), _, _) ->
            Parallel.merge_reports acc ing.Resilient.report
        | `Poisoned _ ->
            { acc with Resilient.poisoned = acc.Resilient.poisoned + 1 })
      Resilient.empty_report results
  in
  { Resilient.docs; dead; report }

let ingest_ndjson_supervised ?budget ?options ?policy ?inject ?checkpoint
    ?resume ?jobs ?telemetry text =
  match
    supervised_engine ?budget ?options ?policy ?inject ?checkpoint ?resume
      ?jobs ?telemetry ~job:"ingest" ~engine:"tree"
      ~run_shard:(tree_run_shard (fun _ -> Json.Value.Null))
      text
  with
  | Error e -> Error e
  | Ok (results, sup) -> Ok (merge_supervised results text, sup)

let equiv_tag = function Jtype.Merge.Kind -> "kind" | Jtype.Merge.Label -> "label"

let ( let* ) = Result.bind

(* decode every completed shard's payload — resumed and fresh alike take
   this path, so a corrupt journal can only surface as an explicit error,
   never as silently different output *)
let decode_payloads ~decode results =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (_, `Ok (ing, pjson, _)) :: rest ->
        let* v = decode (ing : Resilient.ingest) pjson in
        go (v :: acc) rest
    | (_, `Poisoned _) :: rest -> go acc rest
  in
  go [] results

let infer_ndjson_supervised ?(equiv = Jtype.Merge.Kind) ?name ?budget ?options
    ?policy ?inject ?checkpoint ?resume ?(engine = `Streaming) ?jobs ?telemetry
    text =
  Parallel.with_kernel_stats (Option.value telemetry ~default:Telemetry.nop)
  @@ fun () ->
  let encode_pair t c =
    Json.Value.Object
      [ ("jtype", Jtype.Types.to_json t);
        ("counting", Jtype.Counting.to_json c) ]
  in
  let run_shard =
    match engine with
    | `Tree ->
        tree_run_shard (fun (ing : Resilient.ingest) ->
            let t = Inference.Parametric.infer ~equiv ing.Resilient.docs in
            let c = Jtype.Counting.infer ~equiv ing.Resilient.docs in
            encode_pair t c)
    | `Streaming ->
        (* the shard's partial equals the tree shard's [infer] of its
           materialized documents, so the journaled payload is identical *)
        streaming_run_shard
          (streaming_infer_doc ~equiv)
          (fun pairs ->
            let t, c = reduce_streamed ~equiv pairs in
            encode_pair t c)
  in
  let decode _ing pjson =
    match pjson with
    | Json.Value.Object fields -> (
        match (List.assoc_opt "jtype" fields, List.assoc_opt "counting" fields) with
        | Some tj, Some cj ->
            let* t = Jtype.Types.of_json tj in
            let* c = Jtype.Counting.of_json cj in
            Ok (t, c)
        | _ -> Error "checkpoint: inference payload missing jtype/counting")
    | _ -> Error "checkpoint: inference payload must be an object"
  in
  match
    supervised_engine ?budget ?options ?policy ?inject ?checkpoint ?resume
      ?jobs ?telemetry
      ~job:("infer:" ^ equiv_tag equiv)
      ~engine:(match engine with `Tree -> "tree" | `Streaming -> "streaming")
      ~run_shard text
  with
  | Error e -> Error e
  | Ok (results, sup) ->
      let ingest = merge_supervised results text in
      let* partials = decode_payloads ~decode results in
      let inferred =
        (* the streaming engine keeps [docs] empty, so "did anything
           survive" reads off the report — identical for the tree engine,
           whose document list has exactly [report.ok] entries *)
        match ingest.Resilient.report.Resilient.ok with
        | 0 -> None
        | _ ->
            let t = Jtype.Merge.merge_all ~equiv (List.map fst partials) in
            let c = Jtype.Counting.merge_all ~equiv (List.map snd partials) in
            Some (build_inferred ~name:(Option.value name ~default:"Root") t c)
      in
      Ok (inferred, ingest, sup)

let validation_error_to_json (e : Jsonschema.Validate.error) =
  Json.Value.Object
    [ ("instance", Json.Value.String (Json.Pointer.to_string e.Jsonschema.Validate.instance_at));
      ("schema", Json.Value.String (Json.Pointer.to_string e.Jsonschema.Validate.schema_at));
      ("message", Json.Value.String e.Jsonschema.Validate.message) ]

let validation_error_of_json j =
  match j with
  | Json.Value.Object fields -> (
      match
        ( List.assoc_opt "instance" fields,
          List.assoc_opt "schema" fields,
          List.assoc_opt "message" fields )
      with
      | Some (Json.Value.String i), Some (Json.Value.String s),
        Some (Json.Value.String m) ->
          let* instance_at = Json.Pointer.parse i in
          let* schema_at = Json.Pointer.parse s in
          Ok { Jsonschema.Validate.instance_at; schema_at; message = m }
      | _ -> Error "checkpoint: malformed validation error")
  | _ -> Error "checkpoint: validation error must be an object"

let validate_ndjson_supervised ?config ?(compiled = true) ?budget ?options
    ?policy ?inject ?checkpoint ?resume ?(engine = `Streaming) ?jobs
    ?telemetry ~root text =
  (* one shared plan for every shard and every retry attempt; the plan is
     immutable, so a retried shard revalidates through the same closures *)
  let plan_r =
    if not compiled then None
    else Some (Jsonschema.Compile.plan_for ?telemetry root)
  in
  let check =
    match plan_r with
    | None -> fun v -> Jsonschema.Validate.validate ?config ~root v
    | Some (Ok plan) -> fun v -> Jsonschema.Compile.run ?config plan v
    | Some (Error es) -> fun _ -> Error es
  in
  let encode_failures failures =
    Json.Value.Array
      (List.map
         (fun (i, es) ->
           Json.Value.Object
             [ ("doc", Json.Value.Int i);
               ("errors", Json.Value.Array (List.map validation_error_to_json es)) ])
         failures)
  in
  let streaming =
    match (engine, plan_r) with
    | `Streaming, Some (Ok plan) -> Some plan
    | _ -> None
  in
  let run_shard =
    match streaming with
    | None ->
        tree_run_shard (fun (ing : Resilient.ingest) ->
            List.mapi
              (fun i v ->
                match check v with
                | Ok () -> None
                | Error es -> Some (i, es))
              ing.Resilient.docs
            |> List.filter_map Fun.id |> encode_failures)
    | Some plan ->
        streaming_run_shard
          (streaming_validate_doc ?config plan)
          (fun verdicts -> encode_failures (indexed_failures verdicts))
  in
  let decode _ing pjson =
    match pjson with
    | Json.Value.Array items ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | Json.Value.Object fields :: rest -> (
              match
                (List.assoc_opt "doc" fields, List.assoc_opt "errors" fields)
              with
              | Some (Json.Value.Int i), Some (Json.Value.Array ejs) ->
                  let rec errs acc = function
                    | [] -> Ok (List.rev acc)
                    | ej :: more ->
                        let* e = validation_error_of_json ej in
                        errs (e :: acc) more
                  in
                  let* es = errs [] ejs in
                  go ((i, es) :: acc) rest
              | _ -> Error "checkpoint: malformed validation failure")
          | _ :: _ -> Error "checkpoint: malformed validation failure"
        in
        go [] items
    | _ -> Error "checkpoint: validation payload must be an array"
  in
  (* the schema is part of the job identity: a journal written against one
     schema must not resume a run against another. The engine travels in
     the journal header's own field — note it is the *effective* engine: a
     `Streaming request falls back to tree execution when the plan does not
     compile, and the journal records what actually ran. *)
  let job =
    "validate:" ^ Checkpoint.fingerprint (Json.Printer.to_string root)
  in
  match
    supervised_engine ?budget ?options ?policy ?inject ?checkpoint ?resume
      ?jobs ?telemetry ~job
      ~engine:(match streaming with None -> "tree" | Some _ -> "streaming")
      ~run_shard text
  with
  | Error e -> Error e
  | Ok (results, sup) ->
      let ingest = merge_supervised results text in
      let* locals = decode_payloads ~decode results in
      (* rebase each completed shard's document-local failure indices onto
         the merged document list; [report.ok] is the shard's document
         count whether or not the documents were materialized *)
      let doc_counts =
        List.filter_map
          (fun (_, r) ->
            match r with
            | `Ok ((ing : Resilient.ingest), _, _) ->
                Some ing.Resilient.report.Resilient.ok
            | `Poisoned _ -> None)
          results
      in
      let failures =
        let _, rev =
          List.fold_left2
            (fun (base, acc) n fs ->
              ( base + n,
                List.rev_append
                  (List.map (fun (i, es) -> (base + i, es)) fs)
                  acc ))
            (0, []) doc_counts locals
        in
        List.rev rev
      in
      Ok (ingest, failures, sup)

type checked = {
  chk_inferred : inferred option;
  chk_verdict : Jtype.Contain.verdict option;
}

(* The containment step runs outside [Parallel.with_kernel_stats] (the
   inference phase already wraps itself — nesting would double-count), so
   its kernel counters are snapshotted by hand. All three [subtype.*]
   keys are characteristic of the check pipeline and land in the sink
   whenever any subtype work happened. *)
let subtype_counter_delta telemetry f =
  if not (Telemetry.is_recording telemetry) then f ()
  else begin
    let get totals k = Option.value ~default:0 (List.assoc_opt k totals) in
    let before = Jtype.Kernel.totals () in
    let r = f () in
    let after = Jtype.Kernel.totals () in
    List.iter
      (fun k -> Telemetry.count telemetry k (get after k - get before k))
      [ "subtype.queries"; "subtype.hits"; "subtype.unknown" ];
    r
  end

let check_ndjson ?equiv ?name ?budget ?options ?policy ?inject ?checkpoint
    ?resume ?engine ?jobs ?telemetry ?vconfig ~root text =
  match
    infer_ndjson_supervised ?equiv ?name ?budget ?options ?policy ?inject
      ?checkpoint ?resume ?engine ?jobs ?telemetry text
  with
  | Error e -> Error e
  | Ok (inferred, ingest, sup) ->
      let tele = Option.value telemetry ~default:Telemetry.nop in
      let verdict =
        Option.map
          (fun inf ->
            subtype_counter_delta tele (fun () ->
                Jtype.Contain.check ?config:vconfig ~root inf.jtype))
          inferred
      in
      Ok ({ chk_inferred = inferred; chk_verdict = verdict }, ingest, sup)

let profile values =
  let t = Inference.Parametric.infer ~equiv:Jtype.Merge.Kind values in
  let mongo = Inference.Mongo.analyze values in
  let sk = Inference.Skeleton.build values in
  let total_bytes =
    List.fold_left (fun acc v -> acc + String.length (Json.Printer.to_string v)) 0 values
  in
  Json.Value.Object
    [ ("documents", Json.Value.Int (List.length values));
      ("json_bytes", Json.Value.Int total_bytes);
      ("inferred_type", Json.Value.String (Jtype.Types.to_string t));
      ("type_size", Json.Value.Int (Jtype.Types.size t));
      ("field_statistics", Inference.Mongo.to_json mongo);
      ("skeleton",
       Json.Value.Object
         [ ("structures",
            Json.Value.Array
              (List.map
                 (fun (s, n) ->
                   Json.Value.Object
                     [ ("structure",
                        Json.Value.String (Inference.Skeleton.structure_to_string s));
                       ("count", Json.Value.Int n) ])
                 sk.Inference.Skeleton.groups));
           ("documents_outside_skeleton", Json.Value.Int sk.Inference.Skeleton.dropped) ]) ]

type translated = {
  avro_schema : Json.Value.t;
  avro_bytes : string;
  columnar_bytes : string;
  json_bytes : int;
}

let translate ?(equiv = Jtype.Merge.Kind) values =
  let t = Inference.Parametric.infer ~equiv values in
  let avro_schema = Translate.Avro.of_jtype ~name:"root" t in
  match Translate.Avro.encode_all avro_schema values with
  | Error m -> Error ("avro: " ^ m)
  | Ok avro_bytes -> (
      let spark = Inference.Spark.infer values in
      match Translate.Columnar.shred ~schema:spark values with
      | Error m -> Error ("columnar: " ^ m)
      | Ok table ->
          Ok
            {
              avro_schema = Translate.Avro.schema_to_json avro_schema;
              avro_bytes;
              columnar_bytes = Translate.Columnar.encode table;
              json_bytes = String.length (Datagen.to_ndjson values);
            })

let translate_ndjson ?equiv ?budget text =
  let r = Resilient.ingest ?budget text in
  match r.Resilient.docs with
  | [] -> (None, r)
  | docs -> (Some (translate ?equiv docs), r)
