(* jsontool — command-line front end to the schemas_types toolkit.

   Subcommands:
     parse      parse/pretty-print JSON syntax
     validate   validate documents against a JSON Schema / JSound schema
     infer      infer a schema (parametric, spark, mongo, skinfer, skeleton)
     stats      profile a collection (counts, types, field statistics)
     translate  convert NDJSON to Avro-like binary or columnar form
     generate   produce synthetic corpora (tweets, articles, orders, ...)
     query      run a Jaql-style pipeline (with output-schema inference)
     discover   cluster a mixed collection by structural similarity
     profile    explain structural variants with a decision tree
     compat     check schema-evolution compatibility between two schemas
     normalize  JSON -> normalized relational CSVs *)

open Core

(* An unreadable input or schema file ends the run with one line on stderr
   and this exit code (sysexits' EX_NOINPUT), which no verdict uses:
   [check] answers 0/1/2, the other subcommands fail with 1. *)
let exit_unreadable = 66

(* An output file the CLI cannot write ends the run the same way, with
   sysexits' EX_CANTCREAT. Every caller writes its files before anything
   reaches stdout. *)
let exit_unwritable = 73

(* [Sys_error] messages lead with the path; name it once *)
let sys_reason path reason =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix reason then
    String.sub reason (String.length prefix)
      (String.length reason - String.length prefix)
  else reason

let read_input path =
  try
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_bin path In_channel.input_all
  with Sys_error reason ->
    Printf.eprintf "jsontool: cannot read %s: %s\n" path (sys_reason path reason);
    exit exit_unreadable

let write_output path with_open f =
  try with_open path f
  with Sys_error reason ->
    Printf.eprintf "jsontool: cannot write %s: %s\n" path (sys_reason path reason);
    exit exit_unwritable

(* All raw text enters through the resilient layer; the classic subcommands
   use its strict (fail-fast) mode, [ingest] uses full quarantine. The depth
   bound travels in the budget — [Resilient] derives its parser options from
   the budget, so an [options.max_depth] alone would be overwritten. *)
let load_documents ?options ?max_depth ?(jobs = 1) ?telemetry path =
  let budget =
    match max_depth with
    | None -> Resilient.unbounded_budget
    | Some max_depth -> { Resilient.unbounded_budget with Resilient.max_depth }
  in
  Parallel.parse_ndjson_strict ~budget ?options ~jobs ?telemetry (read_input path)

let or_die = function
  | Ok x -> x
  | Error msg ->
      prerr_endline ("jsontool: " ^ msg);
      exit 1

open Cmdliner

let input_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Input file (NDJSON or concatenated JSON); - for stdin.")

(* shared parser-option flags: the knobs real deployments disagree on sit
   beside the resource-budget flags of [ingest] *)

let dup_keys_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("first", Json.Parser.Keep_first); ("last", Json.Parser.Keep_last);
             ("reject", Json.Parser.Reject); ("all", Json.Parser.Keep_all) ])
        Json.Parser.Keep_last
    & info [ "dup-keys" ] ~docv:"POLICY"
        ~doc:"Duplicate object keys: first, last (default), reject, or all.")

let max_depth_arg ~default =
  Arg.(value & opt int default
       & info [ "max-depth" ] ~docv:"N" ~doc:"Maximum nesting depth per document.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Shard the work across $(docv) domains (default 1, sequential). \
                 Output is byte-identical for every job count.")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("tree", `Tree); ("streaming", `Streaming) ]) `Streaming
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Execution engine: streaming (default) fuses parsing with \
              inference/validation at token level, never materializing \
              value trees; tree parses every document into a value first. \
              Reports and exit codes are byte-identical either way. \
              Validation streams only with --compiled on; JSound and the \
              non-parametric inference approaches always use the tree \
              engine.")

let engine_name = function `Tree -> "tree" | `Streaming -> "streaming"

(* supervision flags: shared by ingest/infer/validate. Supervision engages
   only when one of them is given, so the default paths — and their
   telemetry key sets — are exactly the pre-supervisor ones. *)

type sup_opts = {
  sup_retries : int;
  sup_timeout_ms : float option;
  sup_checkpoint : string;
  sup_resume : bool;
  sup_chaos_workers : int option;
  sup_chaos_worker_rate : float;
  sup_chaos_worker_permanent : bool;
}

let sup_term =
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed shard up to $(docv) times (with deterministic \
                   exponential backoff) before quarantining it. Engages the \
                   shard supervisor.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "shard-timeout-ms" ] ~docv:"MS"
             ~doc:"Per-attempt wall-clock deadline per shard, enforced \
                   cooperatively at document boundaries. Engages the shard \
                   supervisor.")
  in
  let checkpoint =
    Arg.(value & opt string ""
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Journal completed shards to $(docv) so an interrupted run \
                   can resume. Engages the shard supervisor.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Reuse completed shards from the --checkpoint journal \
                   (verified against the input fingerprint); only missing or \
                   poisoned shards are recomputed. Use the same --jobs as the \
                   original run to actually skip work.")
  in
  let chaos_workers =
    Arg.(value & opt (some int) None
         & info [ "chaos-workers" ] ~docv:"SEED"
             ~doc:"Inject seeded worker faults into shard execution (see \
                   --chaos-worker-rate); a drill for the retry policy. Engages \
                   the shard supervisor.")
  in
  let chaos_worker_rate =
    Arg.(value & opt float 0.3
         & info [ "chaos-worker-rate" ] ~docv:"P"
             ~doc:"Fraction of shards that fault under --chaos-workers \
                   (default 0.3).")
  in
  let chaos_worker_permanent =
    Arg.(value & flag
         & info [ "chaos-worker-permanent" ]
             ~doc:"Injected worker faults fail every attempt (default: \
                   transient — they heal after 1-2 attempts).")
  in
  let mk sup_retries sup_timeout_ms sup_checkpoint sup_resume sup_chaos_workers
      sup_chaos_worker_rate sup_chaos_worker_permanent =
    { sup_retries; sup_timeout_ms; sup_checkpoint; sup_resume;
      sup_chaos_workers; sup_chaos_worker_rate; sup_chaos_worker_permanent }
  in
  Term.(const mk $ retries $ timeout $ checkpoint $ resume $ chaos_workers
        $ chaos_worker_rate $ chaos_worker_permanent)

let sup_engaged o =
  o.sup_retries > 0 || o.sup_timeout_ms <> None || o.sup_checkpoint <> ""
  || o.sup_chaos_workers <> None

let sup_policy o =
  { Supervisor.default_policy with
    Supervisor.max_attempts = 1 + max 0 o.sup_retries;
    timeout_ms = o.sup_timeout_ms }

let sup_inject o =
  Option.map
    (fun seed ->
      Chaos.worker_faults ~seed ~rate:o.sup_chaos_worker_rate
        ~permanent:o.sup_chaos_worker_permanent ())
    o.sup_chaos_workers

let sup_checkpoint o = if o.sup_checkpoint = "" then None else Some o.sup_checkpoint

let emit_supervision (sup : Pipeline.supervision) =
  let s = sup.Pipeline.sup_stats in
  Printf.eprintf
    "supervisor: shards=%d attempts=%d retries=%d poisoned=%d degraded=%d resumed=%d\n"
    s.Supervisor.shards s.Supervisor.attempts s.Supervisor.retries
    s.Supervisor.poisoned s.Supervisor.degraded sup.Pipeline.sup_resumed

(* observability flags: both create a recording sink; the report goes to
   stderr so stdout stays exactly the command's normal output *)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print a telemetry table (counters, histograms, spans) to stderr.")

let stats_json_arg =
  Arg.(value & flag
       & info [ "stats-json" ]
           ~doc:"Print telemetry as one JSON object on stderr (machine form).")

let make_sink ~stats ~stats_json =
  if stats || stats_json then Telemetry.create () else Telemetry.nop

(* [tags] lands ahead of the metric families in the JSON form — the engine
   tag, so a stats consumer can tell which executor produced the numbers *)
let emit_stats ?(tags = []) ~stats ~stats_json sink =
  if Telemetry.is_recording sink then begin
    let snap = Telemetry.snapshot sink in
    if stats_json then begin
      let json =
        match Telemetry_report.to_json snap with
        | Json.Value.Object fields -> Json.Value.Object (tags @ fields)
        | j -> j
      in
      prerr_endline (Json.Printer.to_string json)
    end;
    if stats then prerr_string (Telemetry_report.to_table snap)
  end

let engine_tags engine = [ ("engine", Json.Value.String (engine_name engine)) ]

(* --- parse ----------------------------------------------------------- *)

let parse_cmd =
  let pretty = Arg.(value & flag & info [ "pretty"; "p" ] ~doc:"Pretty-print output.") in
  let run pretty dup_keys max_depth stats stats_json file =
    let options = { Json.Parser.default_options with dup_keys } in
    let sink = make_sink ~stats ~stats_json in
    let docs = or_die (load_documents ~options ~max_depth ~telemetry:sink file) in
    List.iter
      (fun v ->
        print_endline
          (if pretty then Json.Printer.to_string_pretty v else Json.Printer.to_string v))
      docs;
    emit_stats ~stats ~stats_json sink
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and re-print JSON documents.")
    Term.(const run $ pretty $ dup_keys_arg
          $ max_depth_arg ~default:Json.Parser.default_options.Json.Parser.max_depth
          $ stats_arg $ stats_json_arg $ input_arg)

(* --- ingest ----------------------------------------------------------- *)

let ingest_cmd =
  let opt_cap names doc =
    Arg.(value & opt (some int) None & info names ~docv:"N" ~doc)
  in
  let max_bytes = opt_cap [ "max-bytes" ] "Byte budget per document (default 8388608)." in
  let max_nodes = opt_cap [ "max-nodes" ] "Node budget per document (default 1000000)." in
  let max_string = opt_cap [ "max-string" ] "Byte budget per string literal (default 1048576)." in
  let max_docs = opt_cap [ "max-docs" ] "Stop after this many ingested documents." in
  let quarantine =
    Arg.(value & opt string ""
         & info [ "quarantine" ] ~docv:"OUT"
             ~doc:"Write dead-letter records (one JSON object per line) here.")
  in
  let chaos =
    Arg.(value & opt (some int) None
         & info [ "chaos" ] ~docv:"SEED"
             ~doc:"Corrupt the input first with seeded fault injection (see --chaos-rate).")
  in
  let chaos_rate =
    Arg.(value & opt float 0.2
         & info [ "chaos-rate" ] ~docv:"P" ~doc:"Fraction of lines to fault (default 0.2).")
  in
  let run max_depth max_bytes max_nodes max_string max_docs dup_keys quarantine
      chaos chaos_rate sup jobs stats stats_json file =
    let sink = make_sink ~stats ~stats_json in
    let text = read_input file in
    let text, faults =
      match chaos with
      | None -> (text, None)
      | Some seed -> (
          let o = Chaos.corrupt ~seed ~rate:chaos_rate text in
          (o.Chaos.text, Some o))
    in
    let d = Resilient.default_budget in
    let cap v dflt = match v with Some _ -> v | None -> dflt in
    let budget =
      { Resilient.max_doc_bytes = cap max_bytes d.Resilient.max_doc_bytes;
        max_nodes = cap max_nodes d.Resilient.max_nodes;
        max_string_bytes = cap max_string d.Resilient.max_string_bytes;
        max_depth;
        max_docs = cap max_docs d.Resilient.max_docs }
    in
    let options = { Json.Parser.default_options with dup_keys } in
    let r =
      if sup_engaged sup then begin
        let r, s =
          or_die
            (Pipeline.ingest_ndjson_supervised ~budget ~options
               ~policy:(sup_policy sup) ?inject:(sup_inject sup)
               ?checkpoint:(sup_checkpoint sup) ~resume:sup.sup_resume ~jobs
               ~telemetry:sink text)
        in
        emit_supervision s;
        r
      end
      else Parallel.ingest ~budget ~options ~jobs ~telemetry:sink text
    in
    (* attribution: dead letters an injected fault can claim get the fault's
       site id as their cause, so a drill is distinguishable from a real
       corpus problem in quarantine output *)
    let dead =
      match faults with
      | Some o -> Chaos.attribute o r.Resilient.dead
      | None -> r.Resilient.dead
    in
    if quarantine <> "" then
      write_output quarantine Out_channel.with_open_text (fun oc ->
          (* one buffer reused across the NDJSON emit loop *)
          let buf = Buffer.create 4096 in
          List.iter
            (fun dl ->
              Buffer.clear buf;
              Json.Printer.to_buffer buf (Resilient.dead_letter_to_json dl);
              Buffer.add_char buf '\n';
              Buffer.output_buffer oc buf)
            dead);
    let report_fields =
      match r.Resilient.report |> Resilient.report_to_json with
      | Json.Value.Object fields -> (
          match faults with
          | None -> fields
          | Some o ->
              fields
              @ [ ("chaos_faults", Json.Value.Int (List.length o.Chaos.injected));
                  ("chaos_corrupting", Json.Value.Int o.Chaos.corrupting);
                  ("chaos_oversized", Json.Value.Int o.Chaos.oversized);
                  ("chaos_duplicated", Json.Value.Int o.Chaos.duplicated) ])
      | _ -> assert false
    in
    print_endline (Json.Printer.to_string (Json.Value.Object report_fields));
    emit_stats ~stats ~stats_json sink;
    if quarantine <> "" then
      Printf.eprintf "wrote %d dead letters to %s\n" (List.length dead) quarantine
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Resilient NDJSON ingestion: budgets, quarantine, fault injection.")
    Term.(const run $ max_depth_arg ~default:Resilient.default_budget.Resilient.max_depth
          $ max_bytes $ max_nodes $ max_string $ max_docs $ dup_keys_arg
          $ quarantine $ chaos $ chaos_rate $ sup_term $ jobs_arg $ stats_arg
          $ stats_json_arg $ input_arg)

(* --- validate -------------------------------------------------------- *)

let validate_cmd =
  let schema_file =
    Arg.(required & opt (some string) None & info [ "schema"; "s" ] ~docv:"SCHEMA" ~doc:"Schema file.")
  in
  let language =
    Arg.(value & opt (enum [ ("jsonschema", `Jsonschema); ("jsound", `Jsound) ]) `Jsonschema
         & info [ "language"; "l" ] ~doc:"Schema language: jsonschema or jsound.")
  in
  let formats = Arg.(value & flag & info [ "assert-formats" ] ~doc:"Treat format as an assertion.") in
  let compiled =
    Arg.(value & opt (enum [ ("on", true); ("off", false) ]) true
         & info [ "compiled" ]
             ~doc:"Compiled validation plans: on (default) lowers the schema \
                   once into specialized closures shared across shards; off \
                   re-interprets it per document. Affects cost only — \
                   verdicts and error reports are byte-identical.")
  in
  let validate_cache =
    Arg.(value & opt (enum [ ("on", true); ("off", false) ]) true
         & info [ "validate-cache" ]
             ~doc:"Fingerprint-keyed compiled-schema cache: on (default) or \
                   off. Affects cost only, never verdicts; off forces a \
                   fresh compilation per run and drops the \
                   validate.cache.* counters.")
  in
  let run language formats compiled validate_cache engine sup jobs stats
      stats_json schema_file file =
    Jsonschema.Compile.set_cache validate_cache;
    let sink = make_sink ~stats ~stats_json in
    let schema_json = or_die (Result.map_error Json.Parser.string_of_error (Json.Parser.parse (read_input schema_file))) in
    (* the fused walk needs a compiled plan; JSound has none *)
    let engine =
      match (language, compiled) with
      | (`Jsound, _) | (_, false) -> `Tree
      | _ -> engine
    in
    let failures = ref 0 in
    let print_failures ndocs fs =
      List.iter
        (fun (i, es) ->
          incr failures;
          List.iter
            (fun e ->
              Printf.printf "document %d: %s\n" i (Jsonschema.Validate.string_of_error e))
            es)
        fs;
      Printf.printf "%d/%d documents valid\n" (ndocs - !failures) ndocs
    in
    (match language with
     | `Jsonschema when sup_engaged sup ->
         (* supervised path: quarantining ingestion + per-shard validation
            under retry/timeout, with optional checkpoint/resume *)
         let config =
           { Jsonschema.Validate.default_config with
             Jsonschema.Validate.assert_formats = formats;
             telemetry = sink }
         in
         let r, fs, s =
           or_die
             (Pipeline.validate_ndjson_supervised ~config ~compiled
                ~budget:Resilient.unbounded_budget ~policy:(sup_policy sup)
                ?inject:(sup_inject sup) ?checkpoint:(sup_checkpoint sup)
                ~resume:sup.sup_resume ~engine ~jobs ~telemetry:sink
                ~root:schema_json (read_input file))
         in
         emit_supervision s;
         (* the streaming engine does not materialize documents: the
            survivor count reads off the report for both engines *)
         print_failures r.Resilient.report.Resilient.ok fs
     | `Jsonschema ->
         let config =
           { Jsonschema.Validate.default_config with
             Jsonschema.Validate.assert_formats = formats;
             telemetry = sink }
         in
         (* shard-parallel; failures come back in input order, so the
            printout matches the sequential one — and the tree engine's *)
         let ndocs, fs =
           or_die
             (Pipeline.validate_ndjson_strict ~config ~compiled ~engine ~jobs
                ~telemetry:sink ~root:schema_json (read_input file))
         in
         print_failures ndocs fs
     | `Jsound ->
         let docs = or_die (load_documents ~jobs ~telemetry:sink file) in
         let schema = or_die (Jsound.parse schema_json) in
         List.iteri
           (fun i v ->
             match Jsound.validate schema v with
             | Ok () -> ()
             | Error es ->
                 incr failures;
                 List.iter
                   (fun e -> Printf.printf "document %d: %s\n" i (Jsound.string_of_error e))
                   es)
           docs;
         Printf.printf "%d/%d documents valid\n" (List.length docs - !failures)
           (List.length docs));
    emit_stats ~tags:(engine_tags engine) ~stats ~stats_json sink;
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate documents against a schema.")
    Term.(const run $ language $ formats $ compiled $ validate_cache
          $ engine_arg $ sup_term $ jobs_arg $ stats_arg $ stats_json_arg
          $ schema_file $ input_arg)

(* --- infer ----------------------------------------------------------- *)

let infer_cmd =
  let approach =
    Arg.(value
         & opt (enum [ ("parametric", `Parametric); ("spark", `Spark); ("mongo", `Mongo);
                       ("skinfer", `Skinfer); ("skeleton", `Skeleton) ]) `Parametric
         & info [ "approach"; "a" ] ~doc:"Inference approach.")
  in
  let equiv =
    Arg.(value & opt (enum [ ("kind", Jtype.Merge.Kind); ("label", Jtype.Merge.Label) ]) Jtype.Merge.Kind
         & info [ "equiv"; "e" ] ~doc:"Equivalence for parametric inference: kind or label.")
  in
  let output =
    Arg.(value
         & opt (enum [ ("type", `Type); ("counting", `Counting); ("jsonschema", `Schema);
                       ("typescript", `Ts); ("swift", `Swift) ]) `Type
         & info [ "output"; "o" ] ~doc:"Output form for parametric inference.")
  in
  let run approach equiv output engine sup jobs stats stats_json file =
    let sink = make_sink ~stats ~stats_json in
    (* only the parametric map/reduce has a token-level fold *)
    let engine = if approach = `Parametric then engine else `Tree in
    let print_inferred inferred output =
      match output with
      | `Type -> print_endline (Jtype.Types.to_string inferred.Pipeline.jtype)
      | `Counting -> print_endline (Jtype.Counting.to_string inferred.Pipeline.counting)
      | `Schema -> print_endline (Json.Printer.to_string_pretty inferred.Pipeline.json_schema)
      | `Ts -> print_endline inferred.Pipeline.typescript
      | `Swift -> print_endline inferred.Pipeline.swift
    in
    if approach = `Parametric && sup_engaged sup then begin
      (* supervised path: quarantining ingestion (unlike the fail-fast
         default), retry/timeout per shard, optional checkpoint/resume *)
      let inferred, r, s =
        or_die
          (Pipeline.infer_ndjson_supervised ~equiv
             ~budget:Resilient.unbounded_budget ~policy:(sup_policy sup)
             ?inject:(sup_inject sup) ?checkpoint:(sup_checkpoint sup)
             ~resume:sup.sup_resume ~engine ~jobs ~telemetry:sink
             (read_input file))
      in
      emit_supervision s;
      (match inferred with
       | Some inferred -> print_inferred inferred output
       | None ->
           Printf.eprintf "jsontool: no documents survived ingestion (%d dead)\n"
             (List.length r.Resilient.dead);
           exit 1);
      emit_stats ~tags:(engine_tags engine) ~stats ~stats_json sink
    end
    else if approach = `Parametric then begin
      (* strict like the tree path below — the first bad document aborts
         with the same error — but folding tokens straight into types *)
      let inferred =
        or_die
          (Pipeline.infer_ndjson ~equiv ~engine ~jobs ~telemetry:sink
             (read_input file))
      in
      print_inferred inferred output;
      emit_stats ~tags:(engine_tags engine) ~stats ~stats_json sink
    end
    else begin
    let docs = or_die (load_documents ~jobs ~telemetry:sink file) in
    (match approach with
    | `Parametric -> assert false (* handled above *)
    | `Spark ->
        let f = Inference.Spark.infer docs in
        print_endline (Inference.Spark.field_to_ddl f)
    | `Mongo ->
        print_endline
          (Json.Printer.to_string_pretty (Inference.Mongo.to_json (Inference.Mongo.analyze docs)))
    | `Skinfer ->
        print_endline (Json.Printer.to_string_pretty (Inference.Skinfer.infer_json docs))
    | `Skeleton ->
        let sk = Inference.Skeleton.build docs in
        List.iter
          (fun (s, n) ->
            Printf.printf "%6d  %s\n" n (Inference.Skeleton.structure_to_string s))
          sk.Inference.Skeleton.groups;
        Printf.printf "(%d documents outside the skeleton)\n" sk.Inference.Skeleton.dropped);
    emit_stats ~tags:(engine_tags engine) ~stats ~stats_json sink
    end
  in
  Cmd.v (Cmd.info "infer" ~doc:"Infer a schema from a collection.")
    Term.(const run $ approach $ equiv $ output $ engine_arg $ sup_term
          $ jobs_arg $ stats_arg $ stats_json_arg $ input_arg)

(* --- check ----------------------------------------------------------- *)

let check_cmd =
  let schema_file =
    Arg.(required & opt (some string) None
         & info [ "schema"; "s" ] ~docv:"SCHEMA" ~doc:"Schema file.")
  in
  let formats =
    Arg.(value & flag
         & info [ "assert-formats" ]
             ~doc:"Treat format as an assertion (a schema with an asserted \
                   format can then never be proved to contain a type).")
  in
  let equiv =
    Arg.(value & opt (enum [ ("kind", Jtype.Merge.Kind); ("label", Jtype.Merge.Label) ]) Jtype.Merge.Kind
         & info [ "equiv"; "e" ] ~doc:"Equivalence for the inference step: kind or label.")
  in
  let run equiv formats engine sup jobs stats stats_json schema_file file =
    let sink = make_sink ~stats ~stats_json in
    let schema_json =
      or_die
        (Result.map_error Json.Parser.string_of_error
           (Json.Parser.parse (read_input schema_file)))
    in
    let vconfig =
      { Jsonschema.Validate.default_config with
        Jsonschema.Validate.assert_formats = formats }
    in
    let checked, r, s =
      or_die
        (Pipeline.check_ndjson ~equiv ~budget:Resilient.unbounded_budget
           ~policy:(sup_policy sup) ?inject:(sup_inject sup)
           ?checkpoint:(sup_checkpoint sup) ~resume:sup.sup_resume ~engine
           ~jobs ~telemetry:sink ~vconfig ~root:schema_json (read_input file))
    in
    if sup_engaged sup then emit_supervision s;
    let code =
      match (checked.Pipeline.chk_inferred, checked.Pipeline.chk_verdict) with
      | None, _ | _, None ->
          Printf.eprintf "jsontool: no documents survived ingestion (%d dead)\n"
            (List.length r.Resilient.dead);
          1
      | Some inferred, Some verdict -> (
          Printf.printf "inferred: %s\n"
            (Jtype.Types.to_string inferred.Pipeline.jtype);
          match verdict with
          | Jtype.Contain.Contained ->
              print_endline "contained: every instance of the inferred type satisfies the schema";
              0
          | Jtype.Contain.Not_contained w ->
              Printf.printf
                "NOT contained: the schema rejects this instance of the inferred type:\n  %s\n"
                (Json.Printer.to_string w);
              1
          | Jtype.Contain.Unknown reason ->
              Printf.printf "unknown: %s\n" reason;
              2)
    in
    emit_stats ~tags:(engine_tags engine) ~stats ~stats_json sink;
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check a collection against a schema statically: infer the \
             collection's type, then decide whether every value of that type \
             satisfies the schema. Exit 0 = contained, 1 = a counter-example \
             witness exists (printed), 2 = outside the decided fragment.")
    Term.(const run $ equiv $ formats $ engine_arg $ sup_term $ jobs_arg
          $ stats_arg $ stats_json_arg $ schema_file $ input_arg)

(* --- stats ----------------------------------------------------------- *)

let stats_cmd =
  let run file =
    let docs = or_die (load_documents file) in
    print_endline (Json.Printer.to_string_pretty (Pipeline.profile docs))
  in
  Cmd.v (Cmd.info "stats" ~doc:"Profile a collection.") Term.(const run $ input_arg)

(* --- translate --------------------------------------------------------- *)

let translate_cmd =
  let target =
    Arg.(value & opt (enum [ ("avro", `Avro); ("columnar", `Columnar) ]) `Avro
         & info [ "to"; "t" ] ~doc:"Target format: avro or columnar.")
  in
  let out = Arg.(value & opt string "" & info [ "output-file" ] ~docv:"OUT" ~doc:"Write binary output here.") in
  let run target out file =
    let docs = or_die (load_documents file) in
    let tr = or_die (Pipeline.translate docs) in
    let bytes =
      match target with `Avro -> tr.Pipeline.avro_bytes | `Columnar -> tr.Pipeline.columnar_bytes
    in
    if out <> "" then
      write_output out Out_channel.with_open_bin (fun oc -> output_string oc bytes);
    Printf.printf "json: %d bytes; %s: %d bytes (%.1f%%)\n" tr.Pipeline.json_bytes
      (match target with `Avro -> "avro" | `Columnar -> "columnar")
      (String.length bytes)
      (100.0 *. float_of_int (String.length bytes) /. float_of_int tr.Pipeline.json_bytes);
    if target = `Avro then
      print_endline (Json.Printer.to_string_pretty tr.Pipeline.avro_schema)
  in
  Cmd.v (Cmd.info "translate" ~doc:"Schema-aware translation to binary formats.")
    Term.(const run $ target $ out $ input_arg)

(* --- generate ----------------------------------------------------------- *)

let generate_cmd =
  let corpus =
    Arg.(value
         & opt (enum [ ("tweets", `Tweets); ("articles", `Articles); ("opendata", `Opendata);
                       ("orders", `Orders); ("events", `Events); ("tickets", `Tickets) ]) `Tweets
         & info [ "corpus"; "c" ] ~doc:"Corpus kind.")
  in
  let count = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of documents.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let run corpus count seed =
    let st = Datagen.rng ~seed in
    let docs =
      match corpus with
      | `Tweets -> Datagen.tweets st count
      | `Articles -> Datagen.articles st count
      | `Opendata -> Datagen.open_data st count
      | `Orders -> Datagen.orders st count
      | `Tickets -> Datagen.tickets st count
      | `Events -> Datagen.events st ~fields:16 count
    in
    print_string (Datagen.to_ndjson docs)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate synthetic corpora.")
    Term.(const run $ corpus $ count $ seed)

(* --- query ----------------------------------------------------------------- *)

let query_cmd =
  let query_string =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY"
             ~doc:"Pipeline, e.g. 'filter \\$.age > 18 | group by \\$.city into {n: count}'.")
  in
  let file =
    Arg.(value & pos 1 string "-" & info [] ~docv:"FILE" ~doc:"Input collection.")
  in
  let show_type =
    Arg.(value & flag & info [ "type" ] ~doc:"Also print the inferred output schema.")
  in
  let run q show_type file =
    let docs = or_die (load_documents file) in
    let pipeline = or_die (Query.Parse.pipeline q) in
    if show_type then begin
      let input_t =
        Jtype.Merge.merge_all ~equiv:Jtype.Merge.Kind
          (List.map Jtype.Types.of_value docs)
      in
      Printf.printf "input  type: %s\n" (Jtype.Types.to_string input_t);
      Printf.printf "output type: %s\n"
        (Jtype.Types.to_string (Query.Typing.type_pipeline input_t pipeline))
    end;
    List.iter
      (fun v -> print_endline (Json.Printer.to_string v))
      (Query.Eval.run pipeline docs)
  in
  Cmd.v (Cmd.info "query" ~doc:"Run a Jaql-style pipeline (with output schema inference).")
    Term.(const run $ query_string $ show_type $ file)

(* --- compat ------------------------------------------------------------------ *)

let compat_cmd =
  let old_schema =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc:"Old schema file.")
  in
  let new_schema =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"New schema file.")
  in
  let run old_file new_file =
    let load f =
      or_die (Result.map_error Json.Parser.string_of_error (Json.Parser.parse (read_input f)))
    in
    let old_s = load old_file and new_s = load new_file in
    (* backward compatibility: everything valid under the old schema must
       stay valid under the new one *)
    (match Jtype.Containment.check old_s new_s with
     | Jtype.Containment.Included ->
         print_endline "backward compatible: old instances remain valid"
     | Jtype.Containment.Not_included cex ->
         Printf.printf "NOT backward compatible; counterexample:\n  %s\n"
           (Json.Printer.to_string cex);
         exit 1
     | Jtype.Containment.Unknown ->
         print_endline "backward compatibility: unknown (outside the decidable fragment)");
    match Jtype.Containment.check new_s old_s with
    | Jtype.Containment.Included ->
        print_endline "forward compatible: new instances validate against the old schema"
    | Jtype.Containment.Not_included cex ->
        Printf.printf "not forward compatible (expected for widening changes); example:\n  %s\n"
          (Json.Printer.to_string cex)
    | Jtype.Containment.Unknown -> print_endline "forward compatibility: unknown"
  in
  Cmd.v
    (Cmd.info "compat" ~doc:"Check schema-evolution compatibility between two JSON Schemas.")
    Term.(const run $ old_schema $ new_schema)

(* --- discover ---------------------------------------------------------------- *)

let discover_cmd =
  let threshold =
    Arg.(value & opt float 0.5 & info [ "threshold" ] ~doc:"Jaccard similarity threshold.")
  in
  let run threshold file =
    let docs = or_die (load_documents file) in
    let clusters = Inference.Discovery.discover ~threshold docs in
    List.iteri
      (fun i (c : Inference.Discovery.cluster) ->
        Printf.printf "cluster %d: %d documents\n  %s\n" i c.Inference.Discovery.size
          (Jtype.Types.to_string c.Inference.Discovery.schema))
      clusters
  in
  Cmd.v (Cmd.info "discover" ~doc:"Cluster a mixed collection by structural similarity.")
    Term.(const run $ threshold $ input_arg)

(* --- profile ----------------------------------------------------------------- *)

let profile_cmd =
  let depth = Arg.(value & opt int 4 & info [ "depth" ] ~doc:"Maximum tree depth.") in
  let run depth file =
    let docs = or_die (load_documents file) in
    let p = Inference.Profile.profile ~max_depth:depth docs in
    Printf.printf "structural variants: %d; training accuracy %.3f\n"
      (List.length p.Inference.Profile.variants)
      p.Inference.Profile.training_accuracy;
    List.iter (fun r -> print_endline ("  " ^ r)) (Inference.Profile.rules p)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Explain structural variants with a decision tree over field values.")
    Term.(const run $ depth $ input_arg)

(* --- normalize ------------------------------------------------------------ *)

let normalize_cmd =
  let outdir = Arg.(value & opt string "" & info [ "outdir"; "d" ] ~doc:"Write one CSV per table here.") in
  let run outdir file =
    let docs = or_die (load_documents file) in
    let r = Inference.Relational.normalize ~name:"root" docs in
    let csvs = Translate.Csv_export.result_to_csvs r in
    let written =
      if outdir = "" then []
      else
        List.map
          (fun (name, csv) ->
            let path = Filename.concat outdir (name ^ ".csv") in
            write_output path Out_channel.with_open_text (fun oc ->
                output_string oc csv);
            path)
          csvs
    in
    Printf.printf "cells: %d -> %d (%.1f%% of original)\n" r.Inference.Relational.cells_before
      r.Inference.Relational.cells_after
      (100.0
      *. float_of_int r.Inference.Relational.cells_after
      /. float_of_int (max 1 r.Inference.Relational.cells_before));
    if outdir = "" then
      List.iter (fun (name, csv) -> Printf.printf "-- %s --\n%s" name csv) csvs
    else List.iter (Printf.printf "wrote %s\n") written
  in
  Cmd.v (Cmd.info "normalize" ~doc:"Normalize nested JSON into relational CSVs.")
    Term.(const run $ outdir $ input_arg)

let () =
  let doc = "schemas and types for JSON data — toolkit CLI" in
  let info = Cmd.info "jsontool" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ parse_cmd; ingest_cmd; validate_cmd; infer_cmd; check_cmd;
            stats_cmd; translate_cmd; generate_cmd; query_cmd; discover_cmd;
            profile_cmd; compat_cmd; normalize_cmd ]))
