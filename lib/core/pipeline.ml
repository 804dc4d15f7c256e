type inferred = {
  jtype : Jtype.Types.t;
  counting : Jtype.Counting.t;
  json_schema : Json.Value.t;
  typescript : string;
  swift : string;
}

(* Every inference path folds counting types only and reads the type off
   by erasure: the erased counting fold is the [Types] fold
   ([Inference.Parametric.infer]), which test_jtype pins under both
   equivalences. *)
let build_inferred ~name c =
  let t = Jtype.Counting.erase c in
  {
    jtype = t;
    counting = c;
    json_schema = Jtype.Interop.to_schema_json t;
    typescript = Jtype.Typescript.declaration ~name t;
    swift = Jtype.Swift.declaration ~name t;
  }

(* the same values on both engines: [infer.merge_ops] counts the merges of
   the per-document fold, [infer.union_width] samples the final type once *)
let emit_inferred telemetry ~docs (i : inferred) =
  if Telemetry.is_recording telemetry then begin
    Telemetry.count telemetry "infer.merge_ops" (max 0 (docs - 1));
    Telemetry.observe telemetry "infer.union_width"
      (float_of_int (Inference.Parametric.union_width i.jtype))
  end

let infer ?(equiv = Jtype.Merge.Kind) ?(name = "Root")
    ?(telemetry = Telemetry.nop) values =
  Parallel.with_kernel_stats telemetry @@ fun () ->
  let i =
    build_inferred ~name
      (Telemetry.span telemetry "infer" (fun () ->
           Jtype.Counting.infer ~equiv values))
  in
  emit_inferred telemetry ~docs:(List.length values) i;
  i

(* --- the engines' per-document steps ------------------------------------ *)

type engine = [ `Tree | `Streaming ]

let engine_name = function `Tree -> "tree" | `Streaming -> "streaming"

(* Each step is a factory: the executor instantiates one per shard on the
   domain that runs it, so per-shard scratch (interning tables, shape and
   verdict caches) never crosses a domain. *)
let tree_doc () ~options ~telemetry src ~pos =
  Json.Parser.parse_substring ~options ~telemetry src ~pos

let streaming_infer_doc ~equiv () =
  let scratch = Inference.Streaming.scratch () in
  fun ~options ~telemetry src ~pos ->
    Inference.Streaming.infer_tokens ~options ~telemetry ~scratch ~equiv src
      ~pos

let streaming_validate_doc ?config plan () =
  let scratch = Jsonschema.Compile.scratch () in
  fun ~options ~telemetry src ~pos ->
    Jsonschema.Compile.run_stream ?config ~options ~telemetry ~scratch plan src
      ~pos

(* A type whose documents count in many ways (arrays of many lengths) keeps
   only its first [max_variants] counting values as group keys; the others
   are merged one by one, as without grouping, so a lookup never costs more
   than [max_variants] comparisons. No type of the 100k-tweet corpus has
   more than 9. *)
let max_variants = 16

(* The streaming inference fold's [finish]: reduce a shard's per-document
   (type, counting) pairs by one counting fold. Documents are grouped by
   the interned id of their type; a group member is confirmed by its
   counting value (physically equal when the shape cache answered both
   documents, else compared structurally: arrays of one element type can
   still count differently), and each distinct counting value is merged
   once, scaled by its multiplicity. That equals the per-document fold
   because the counting merge is commutative and associative on canonical
   values and [merge c c = scale 2 c]. *)
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
  Jtype.Counting.merge_all ~equiv
    (List.rev_map (fun (c, k) -> Jtype.Counting.scale !k c) distinct)

(* failing indices of a shard's verdicts, local to the shard *)
let indexed_failures verdicts =
  List.mapi
    (fun i v -> match v with Ok () -> None | Error es -> Some (i, es))
    verdicts
  |> List.filter_map Fun.id

(* the tree engine's check of one document: the compiled plan (immutable,
   so one serves every shard and attempt) or the interpreter; a schema that
   does not compile fails every document with the compiler's errors *)
let tree_check ?config ~plan root =
  match plan with
  | None -> fun v -> Jsonschema.Validate.validate ?config ~root v
  | Some (Ok plan) -> fun v -> Jsonschema.Compile.run ?config plan v
  | Some (Error es) -> fun _ -> Error es

let validate_collection ?config ?(compiled = true) ?telemetry ~root values =
  let plan =
    if compiled then Some (Jsonschema.Compile.plan_for ?telemetry root)
    else None
  in
  match indexed_failures (List.map (tree_check ?config ~plan root) values) with
  | [] -> Ok (List.length values)
  | failures -> Error failures

(* --- the sharded executor ----------------------------------------------- *)

type supervision = {
  sup_stats : Supervisor.stats;
  sup_resumed : int;
}

type ('a, 'p) fold = {
  parse_doc :
    unit ->
    options:Json.Parser.options -> telemetry:Telemetry.sink ->
    string -> pos:int -> ('a * int, Json.Parser.error) result;
  finish : 'a list -> 'p;
  encode : 'p -> Json.Value.t;
  decode : Json.Value.t -> ('p, string) result;
}

let ( let* ) = Result.bind

(* a poisoned shard becomes one dead letter in whole-input coordinates, so
   quarantine triage reads the same whether a single document or a whole
   shard was lost *)
let poison_letter text (sh : Parallel.shard) failure attempts =
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
    raw_prefix =
      Resilient.raw_prefix text ~lo:sh.Parallel.s_off
        ~hi:(sh.Parallel.s_off + sh.Parallel.s_len) }

let rec all_ok = function
  | [] -> Ok []
  | Ok x :: rest ->
      let* xs = all_ok rest in
      Ok (x :: xs)
  | Error e :: _ -> Error e

let run_shards ?(budget = Resilient.default_budget) ?options
    ?(policy = Supervisor.no_retry) ?inject ?checkpoint ?(resume = false)
    ?(jobs = 1) ?(telemetry = Telemetry.nop) ~job ~engine fold text =
  let n = String.length text in
  let shards =
    (* a document-count budget is a global order-dependent cap: it cannot
       be applied per shard, so the whole input becomes one shard *)
    if n = 0 then []
    else if budget.Resilient.max_docs <> None then
      [ { Parallel.s_off = 0; s_len = n; s_line = 1 } ]
    else Parallel.shards ~jobs text
  in
  let* journal, entries =
    match checkpoint with
    | None -> Ok (None, [])
    | Some path ->
        Result.map
          (fun (j, entries) -> (Some j, entries))
          (Checkpoint.start ~path ~resume ~job ~engine ~input:text)
  in
  let close () = Option.iter Checkpoint.close journal in
  (* journaled shards are decoded before any work runs, so an unusable
     journal fails the run up front *)
  let restore (sh : Parallel.shard) =
    match
      List.find_opt
        (fun e ->
          e.Checkpoint.e_off = sh.Parallel.s_off
          && e.Checkpoint.e_len = sh.Parallel.s_len
          && e.Checkpoint.e_line = sh.Parallel.s_line)
        entries
    with
    | None -> Ok (sh, None)
    | Some e ->
        let* p = fold.decode e.Checkpoint.e_payload in
        Ok (sh, Some (e.Checkpoint.e_ingest, p))
  in
  match all_ok (List.map restore shards) with
  | Error e ->
      close ();
      Error e
  | Ok tagged ->
      let resumed =
        List.length (List.filter (fun (_, r) -> Option.is_some r) tagged)
      in
      if resumed > 0 then
        Telemetry.count telemetry "checkpoint.resumed_shards" resumed;
      (* pending shards keep their *global* index, so a deterministic fault
         plan (Chaos.worker_faults) hits the same shards in a resumed run
         as in the original — and never hits already-journaled ones *)
      let pending =
        List.concat
          (List.mapi
             (fun i (sh, r) -> if Option.is_none r then [ (i, sh) ] else [])
             tagged)
      in
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
      let record (sh : Parallel.shard) ingest p =
        Option.iter
          (fun j ->
            let entry =
              { Checkpoint.e_off = sh.Parallel.s_off;
                e_len = sh.Parallel.s_len;
                e_line = sh.Parallel.s_line;
                e_ingest = ingest;
                e_payload = fold.encode p }
            in
            Mutex.protect jmutex (fun () -> Checkpoint.record j entry))
          journal
      in
      let span = List.hd (String.split_on_char ':' job) ^ ".shard" in
      let task (sh : Parallel.shard) ~attempt ~tick =
        Telemetry.span telemetry span (fun () ->
            (* a shard that covers the whole input reads it in place *)
            let src =
              if sh.Parallel.s_len = n then text
              else String.sub text sh.Parallel.s_off sh.Parallel.s_len
            in
            let docs, dead, report =
              Resilient.ingest_with ~budget ?options
                ~first_line:sh.Parallel.s_line ~base_offset:sh.Parallel.s_off
                ~attempt ~tick ~telemetry ~parse_doc:(fold.parse_doc ()) src
            in
            let p = fold.finish docs in
            let ingest = { Resilient.docs = []; dead; report } in
            record sh ingest p;
            (ingest, p))
      in
      let outcomes, stats =
        Supervisor.run ~policy ~telemetry ?inject ~jobs
          (List.map (fun (_, sh) -> task sh) pending)
      in
      close ();
      let rec zip tagged outcomes =
        match (tagged, outcomes) with
        | [], _ -> []
        | (_, Some r) :: rest, _ -> Ok r :: zip rest outcomes
        | (_, None) :: rest, Supervisor.Done { value; _ } :: out ->
            Ok value :: zip rest out
        | (sh, None) :: rest, Supervisor.Poisoned { failure; attempts } :: out ->
            Error (poison_letter text sh failure attempts) :: zip rest out
        | (_, None) :: _, [] -> assert false (* one outcome per pending shard *)
      in
      let results = zip tagged outcomes in
      let parts =
        List.filter_map
          (function
            | Ok ((ingest : Resilient.ingest), p) ->
                Some (ingest.Resilient.report.Resilient.ok, p)
            | Error _ -> None)
          results
      in
      let dead =
        List.concat_map
          (function
            | Ok ((ingest : Resilient.ingest), _) -> ingest.Resilient.dead
            | Error letter -> [ letter ])
          results
        |> List.stable_sort Parallel.dead_order
      in
      let report =
        List.fold_left
          (fun acc -> function
            | Ok ((ingest : Resilient.ingest), _) ->
                Parallel.merge_reports acc ingest.Resilient.report
            | Error _ ->
                { acc with Resilient.poisoned = acc.Resilient.poisoned + 1 })
          Resilient.empty_report results
      in
      Ok
        ( parts,
          { Resilient.docs = []; dead; report },
          { sup_stats = stats; sup_resumed = resumed } )

let strict = function
  | Ok (_, { Resilient.dead = d :: _; _ }, _) -> Error d.Resilient.error
  | run -> run

(* --- one run per job kind ------------------------------------------------ *)

let ingest_ndjson ?budget ?options ?policy ?inject ?checkpoint ?resume ?jobs
    ?(telemetry = Telemetry.nop) text =
  let decode = function
    | Json.Value.Array docs -> Ok docs
    | _ -> Error "checkpoint: an ingest entry's payload must be its documents"
  in
  let* parts, ingest, sup =
    run_shards ?budget ?options ?policy ?inject ?checkpoint ?resume ?jobs
      ~telemetry ~job:"ingest" ~engine:"tree"
      { parse_doc = tree_doc;
        finish = Fun.id;
        encode = (fun docs -> Json.Value.Array docs);
        decode }
      text
  in
  let docs =
    Telemetry.span telemetry "ingest.merge" (fun () -> List.concat_map snd parts)
  in
  Ok (docs, ingest, sup)

let equiv_tag = function Jtype.Merge.Kind -> "kind" | Jtype.Merge.Label -> "label"

let counting_to_payload c =
  Json.Value.Object [ ("counting", Jtype.Counting.to_json c) ]

(* only [counting] is read, so a journal whose payloads also carry the
   erased type as [jtype] resumes as well. Every partial the fold writes is
   canonical, a fixpoint of [merge_all]; a value that is not (a union nested
   in a union, say) would be carried into the merge as a shape no merge
   builds, so it is refused. *)
let counting_of_payload ~equiv = function
  | Json.Value.Object fields -> (
      match List.assoc_opt "counting" fields with
      | Some cj -> (
          match Jtype.Counting.of_json cj with
          | Ok c when Jtype.Counting.merge_all ~equiv [ c ] = c -> Ok c
          | Ok _ -> Error "checkpoint: counting json: not a canonical counting type"
          | Error e -> Error ("checkpoint: " ^ e))
      | None -> Error "checkpoint: inference payload missing counting")
  | _ -> Error "checkpoint: inference payload must be an object"

let infer_ndjson ?(equiv = Jtype.Merge.Kind) ?(name = "Root") ?budget ?options
    ?policy ?inject ?checkpoint ?resume ?(engine = `Streaming) ?jobs
    ?(telemetry = Telemetry.nop) text =
  Parallel.with_kernel_stats telemetry @@ fun () ->
  let run parse_doc finish =
    run_shards ?budget ?options ?policy ?inject ?checkpoint ?resume ?jobs
      ~telemetry
      ~job:("infer:" ^ equiv_tag equiv)
      ~engine:(engine_name engine)
      { parse_doc; finish; encode = counting_to_payload;
        decode = counting_of_payload ~equiv }
      text
  in
  (* a streaming shard's partial equals the tree shard's [Counting.infer]
     of its documents, so the two engines journal identical payloads *)
  let* parts, ingest, sup =
    match engine with
    | `Tree -> run tree_doc (Jtype.Counting.infer ~equiv)
    | `Streaming -> run (streaming_infer_doc ~equiv) (reduce_streamed ~equiv)
  in
  let i =
    build_inferred ~name
      (Telemetry.span telemetry "infer.merge" (fun () ->
           Jtype.Counting.merge_all ~equiv (List.map snd parts)))
  in
  emit_inferred telemetry ~docs:ingest.Resilient.report.Resilient.ok i;
  Ok (i, ingest, sup)

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

let failures_to_payload failures =
  Json.Value.Array
    (List.map
       (fun (i, es) ->
         Json.Value.Object
           [ ("doc", Json.Value.Int i);
             ("errors", Json.Value.Array (List.map validation_error_to_json es)) ])
       failures)

let failures_of_payload = function
  | Json.Value.Array items ->
      all_ok
        (List.map
           (function
             | Json.Value.Object fields -> (
                 match
                   (List.assoc_opt "doc" fields, List.assoc_opt "errors" fields)
                 with
                 | Some (Json.Value.Int i), Some (Json.Value.Array ejs) ->
                     let* es = all_ok (List.map validation_error_of_json ejs) in
                     Ok (i, es)
                 | _ -> Error "checkpoint: malformed validation failure")
             | _ -> Error "checkpoint: malformed validation failure")
           items)
  | _ -> Error "checkpoint: validation payload must be an array"

let validate_ndjson ?config ?(compiled = true) ?budget ?options ?policy ?inject
    ?checkpoint ?resume ?(engine = `Streaming) ?jobs
    ?(telemetry = Telemetry.nop) ~root text =
  let plan =
    if compiled then Some (Jsonschema.Compile.plan_for ~telemetry root)
    else None
  in
  (* the schema is part of the job identity: a journal written against one
     schema must not resume a run against another. The journal header
     records the engine that actually runs: the fused walk needs a compiled
     plan, so without one validation falls back to the tree engine. *)
  let run ~engine parse_doc finish =
    run_shards ?budget ?options ?policy ?inject ?checkpoint ?resume ?jobs
      ~telemetry
      ~job:("validate:" ^ Checkpoint.fingerprint (Json.Printer.to_string root))
      ~engine
      { parse_doc; finish; encode = failures_to_payload;
        decode = failures_of_payload }
      text
  in
  let* parts, ingest, sup =
    match (engine, plan) with
    | `Streaming, Some (Ok plan) ->
        run ~engine:"streaming" (streaming_validate_doc ?config plan)
          indexed_failures
    | _ ->
        let check = tree_check ?config ~plan root in
        run ~engine:"tree" tree_doc (fun docs ->
            indexed_failures (List.map check docs))
  in
  (* shift each shard's local failure indices past the documents of the
     shards before it *)
  let failures =
    Telemetry.span telemetry "validate.merge" (fun () ->
        let _, rev =
          List.fold_left
            (fun (base, acc) (docs, fs) ->
              ( base + docs,
                List.rev_append (List.map (fun (i, es) -> (base + i, es)) fs) acc ))
            (0, []) parts
        in
        List.rev rev)
  in
  Ok (failures, ingest, sup)

let validate_ndjson_strict ?config ?compiled ?engine ?jobs ?telemetry ~root
    text =
  Result.map
    (fun (failures, (ingest : Resilient.ingest), _) ->
      (ingest.Resilient.report.Resilient.ok, failures))
    (strict
       (validate_ndjson ?config ?compiled ~budget:Resilient.unbounded_budget
          ?engine ?jobs ?telemetry ~root text))

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
    ?resume ?engine ?jobs ?(telemetry = Telemetry.nop) ?vconfig ~root text =
  let* inferred, ingest, sup =
    infer_ndjson ?equiv ?name ?budget ?options ?policy ?inject ?checkpoint
      ?resume ?engine ?jobs ~telemetry text
  in
  let checked =
    if ingest.Resilient.report.Resilient.ok = 0 then
      { chk_inferred = None; chk_verdict = None }
    else
      { chk_inferred = Some inferred;
        chk_verdict =
          Some
            (subtype_counter_delta telemetry (fun () ->
                 Jtype.Contain.check ?config:vconfig ~root inferred.jtype)) }
  in
  Ok (checked, ingest, sup)

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
