(* Layer tracer for the jsontool benchmark.

   Runs one workload's job in process, one layer at a time, on the same
   bytes the jsontool process reads, calling each layer's public
   functions. Every layer call is wrapped in a span (name, start, end,
   parent, workload); spans are kept in memory and written to a JSON file
   when the run ends. Counts (tokens, failures, allocation, kernel cache
   hits, ...) are taken on the first traced pass.

   Passes alternate between traced (spans recorded) and untraced (the
   same calls, no recording) until the time budget is spent, so the
   benchmark (run.py) reports the tracing overhead as their ratio.

     tracer.exe --workload W --input F [--schema S] --work DIR
                --seconds N --spans OUT.json --render OUT.txt

   The last line of standard output is one JSON object:
   {"counts": {...}, "untraced_ms": [...], "traced_passes": n}. *)

open Core
module V = Json.Value

(* --- spans ------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int option;
  name : string;
  pass : int;
  start : float;
  stop : float;
}

let workload = ref ""
let tracing = ref false
let pass_no = ref 0
let spans : span list ref = ref []
let next_id = ref 0
let current : int option ref = ref None

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := Some id;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      current := parent;
      spans := { id; parent; name; pass = !pass_no; start; stop } :: !spans
    in
    Fun.protect ~finally:finish f
  end

let span_to_json s =
  V.Object
    [ ("id", V.Int s.id);
      ("parent", match s.parent with Some p -> V.Int p | None -> V.Null);
      ("name", V.String s.name);
      ("workload", V.String !workload);
      ("pass", V.Int s.pass);
      ("start", V.Float s.start);
      ("end", V.Float s.stop) ]

(* --- counts, kept from the first traced pass ----------------------------- *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let note name v =
  if !tracing && not (Hashtbl.mem counts name) then Hashtbl.replace counts name v

let note_int name n = note name (float_of_int n)

(* allocation of [f ()] on the calling domain, in millions of words *)
let alloc_mwords name f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  note name ((Gc.allocated_bytes () -. before) /. 8e6);
  r

let kernel_total name =
  Option.value ~default:0 (List.assoc_opt name (Jtype.Kernel.totals ()))

(* [kernel.nodes] and the merge-cache hit ratio over the merge layer *)
let with_kernel_delta f =
  let nodes = kernel_total "kernel.nodes"
  and hits = kernel_total "kernel.merge.hits"
  and misses = kernel_total "kernel.merge.misses" in
  let r = f () in
  let dh = kernel_total "kernel.merge.hits" - hits
  and dm = kernel_total "kernel.merge.misses" - misses in
  note_int "kernel.nodes" (kernel_total "kernel.nodes" - nodes);
  note "merge.hit_ratio"
    (if dh + dm = 0 then 0.0 else float_of_int dh /. float_of_int (dh + dm));
  r

(* --- layers shared by the workloads ------------------------------------ *)

(* as jsontool reads its input *)
let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read path = span "read" (fun () -> read_file path)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("tracer: " ^ msg); exit 2) fmt

(* the lexer floor: every token of the input through [Lexer.skim] *)
let lex text =
  let tokens =
    span "lex" (fun () ->
        let lx = Json.Lexer.create text in
        let rec loop n =
          match Json.Lexer.skim lx with Json.Lexer.S_eof -> n | _ -> loop (n + 1)
        in
        loop 0)
  in
  note_int "lex.tokens" tokens

(* the skip floor: every document stepped over by bracket counting *)
let rawscan text =
  span "rawscan" (fun () ->
      let n = String.length text in
      let rec loop pos =
        let pos = Fastjson.Rawscan.skip_ws text pos in
        if pos < n then
          match Fastjson.Rawscan.skip_value text pos with
          | Ok next -> loop next
          | Error e -> die "rawscan: %s" e
      in
      loop 0)

let shard ~jobs text =
  span "shard" (fun () ->
      let shards = Parallel.shards ~jobs text in
      note_int "shard.count" (List.length shards);
      (* the per-shard copies the supervised executor makes *)
      if jobs > 1 then
        List.map
          (fun (sh : Parallel.shard) ->
            (sh, String.sub text sh.Parallel.s_off sh.Parallel.s_len))
          shards
      else List.map (fun sh -> (sh, text)) shards)

(* per-document streaming typing over one shard, through the ingestion
   loop the pipelines use *)
let type_shard ((sh : Parallel.shard), sub) =
  let scratch = Inference.Streaming.scratch () in
  Resilient.ingest_with ~budget:Resilient.unbounded_budget
    ~first_line:sh.Parallel.s_line ~base_offset:sh.Parallel.s_off
    ~parse_doc:(fun ~options ~telemetry src ~pos ->
      Inference.Streaming.infer_tokens ~options ~telemetry ~scratch
        ~equiv:Jtype.Merge.Kind src ~pos)
    sub

let type_layer shards =
  let per_shard =
    span "type" (fun () ->
        alloc_mwords "type.alloc_mwords" (fun () -> List.map type_shard shards))
  in
  let pairs = List.concat_map (fun (p, _, _) -> p) per_shard in
  let distinct = Hashtbl.create 1024 in
  List.iter (fun (t, _) -> Hashtbl.replace distinct (Jtype.Types.id t) ()) pairs;
  note "type.distinct_ratio"
    (float_of_int (Hashtbl.length distinct)
    /. float_of_int (max 1 (List.length pairs)));
  let quarantined =
    List.fold_left
      (fun n (_, _, r) -> n + r.Resilient.quarantined + r.Resilient.budget_killed)
      0 per_shard
  in
  note_int "ingest.quarantined" quarantined;
  per_shard

let merge_pairs pairs =
  ( Jtype.Merge.merge_all ~equiv:Jtype.Merge.Kind (List.map fst pairs),
    Jtype.Counting.merge_all ~equiv:Jtype.Merge.Kind (List.map snd pairs) )

(* the artifacts every inference pipeline builds, then the job's output *)
let render_inferred t =
  ignore (Jtype.Typescript.declaration ~name:"Root" t);
  ignore (Jtype.Swift.declaration ~name:"Root" t);
  Jtype.Interop.to_schema_json t

let render_out = Buffer.create 4096

(* counting done once after the passes, outside every span *)
let epilogue = ref (fun () -> ())

let rendered s = if Buffer.length render_out = 0 then Buffer.add_string render_out s

let timed_untraced f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1000.0

(* the pipeline entry point at the job's own job count, at the other job
   count (for the jobs-1 / jobs-2 speedup), and with a recording
   telemetry sink; each from cold fusion caches, as in a fresh process *)
let pipelines ~jobs run =
  let cold name ~jobs ~telemetry =
    Jtype.Merge.clear_caches ();
    span name (fun () -> run ~jobs ~telemetry)
  in
  cold "pipeline" ~jobs ~telemetry:Telemetry.nop;
  cold "pipeline.alt" ~jobs:(if jobs = 1 then 2 else 1) ~telemetry:Telemetry.nop;
  cold "pipeline.telemetry" ~jobs ~telemetry:(Telemetry.create ())

(* --- workloads ----------------------------------------------------------- *)

(* jsontool infer -o jsonschema --jobs 1 *)
let infer_tweets ~input =
  let text = read input in
  let shards = shard ~jobs:1 text in
  lex text;
  let per_shard = type_layer shards in
  let t, _c =
    span "merge" (fun () ->
        alloc_mwords "merge.alloc_mwords" (fun () ->
            with_kernel_delta (fun () ->
                merge_pairs (List.concat_map (fun (p, _, _) -> p) per_shard))))
  in
  span "render" (fun () ->
      rendered (Json.Printer.to_string_pretty (render_inferred t) ^ "\n"));
  pipelines ~jobs:1 (fun ~jobs ~telemetry ->
      match Pipeline.infer_ndjson ~engine:`Streaming ~jobs ~telemetry text with
      | Ok _ -> ()
      | Error e -> die "infer: %s" e)

(* jsontool validate --jobs 1 -s S *)
let validate_orders ~input ~schema =
  let text = read input in
  let root =
    match Json.Parser.parse (read_file schema) with
    | Ok v -> v
    | Error e -> die "schema: %s" (Json.Parser.string_of_error e)
  in
  let shards = shard ~jobs:1 text in
  lex text;
  rawscan text;
  let plan =
    span "compile" (fun () ->
        match Jsonschema.Compile.compile root with
        | Ok plan -> plan
        | Error _ -> die "schema does not compile")
  in
  note_int "compile.plan_nodes" (Jsonschema.Compile.nodes plan);
  let validate_all ?(telemetry = Telemetry.nop) () =
    List.concat_map
      (fun ((sh : Parallel.shard), sub) ->
        let verdicts, _, _ =
          Resilient.ingest_with ~budget:Resilient.unbounded_budget
            ~first_line:sh.Parallel.s_line ~base_offset:sh.Parallel.s_off
            ~telemetry
            ~parse_doc:(fun ~options ~telemetry src ~pos ->
              Jsonschema.Compile.run_stream ~options ~telemetry plan src ~pos)
            sub
        in
        verdicts)
      shards
  in
  let verdicts =
    span "validate" (fun () ->
        alloc_mwords "validate.alloc_mwords" (fun () -> validate_all ()))
  in
  let failures = ref 0 in
  span "render" (fun () ->
      let b = Buffer.create 4096 in
      List.iteri
        (fun i v ->
          match v with
          | Ok () -> ()
          | Error es ->
              incr failures;
              List.iter
                (fun e ->
                  Printf.bprintf b "document %d: %s\n" i
                    (Jsonschema.Validate.string_of_error e))
                es)
        verdicts;
      let n = List.length verdicts in
      Printf.bprintf b "%d/%d documents valid\n" (n - !failures) n;
      rendered (Buffer.contents b));
  note_int "validate.failures" !failures;
  pipelines ~jobs:1 (fun ~jobs ~telemetry ->
      let config = { Jsonschema.Validate.default_config with telemetry } in
      match
        Pipeline.validate_ndjson_strict ~config ~engine:`Streaming ~jobs
          ~telemetry ~root text
      with
      | Ok _ -> ()
      | Error e -> die "validate: %s" e);
  (* skipped bytes need a recording sink, which would slow the timed
     layer: count them in a separate walk after the passes *)
  epilogue :=
    fun () ->
      let sink = Telemetry.create () in
      ignore (validate_all ~telemetry:sink ());
      let c = (Telemetry.snapshot sink).Telemetry.counters in
      let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k c)) in
      note "validate.skipped_share"
        (get "stream.skipped_bytes" /. max 1.0 (get "parse.bytes"))

(* jsontool check --jobs 2 --retries 1 --checkpoint F --stats-json -s S *)
let check_sparse ~input ~schema ~work =
  let jobs = 2 in
  let text = read input in
  let root =
    match Json.Parser.parse (read_file schema) with
    | Ok v -> v
    | Error e -> die "schema: %s" (Json.Parser.string_of_error e)
  in
  let shards = shard ~jobs text in
  let per_shard = type_layer shards in
  let partials =
    span "merge" (fun () ->
        alloc_mwords "merge.alloc_mwords" (fun () ->
            with_kernel_delta (fun () ->
                List.map (fun (pairs, _, _) -> merge_pairs pairs) per_shard)))
  in
  (* the supervised executor journals each shard's partial and decodes
     every payload back before the final merge *)
  let journal_path = Filename.concat work "tracer-checkpoint.ndjson" in
  let decoded =
    span "journal" (fun () ->
        let journal =
          match
            Checkpoint.start ~path:journal_path ~resume:false ~job:"infer:kind"
              ~engine:"streaming" ~input:text
          with
          | Ok (j, _) -> j
          | Error e -> die "checkpoint: %s" e
        in
        let payloads =
          List.map2
            (fun ((sh : Parallel.shard), _) ((_, dead, report), (t, c)) ->
              let payload =
                V.Object
                  [ ("jtype", Jtype.Types.to_json t);
                    ("counting", Jtype.Counting.to_json c) ]
              in
              Checkpoint.record journal
                { Checkpoint.e_off = sh.Parallel.s_off;
                  e_len = sh.Parallel.s_len;
                  e_line = sh.Parallel.s_line;
                  e_ingest = { Resilient.docs = []; dead; report };
                  e_payload = payload };
              payload)
            shards
            (List.combine per_shard partials)
        in
        Checkpoint.close journal;
        List.map
          (function
            | V.Object fields -> (
                match
                  ( Jtype.Types.of_json (List.assoc "jtype" fields),
                    Jtype.Counting.of_json (List.assoc "counting" fields) )
                with
                | Ok t, Ok c -> (t, c)
                | _ -> die "journal payload does not decode")
            | _ -> die "journal payload is not an object")
          payloads)
  in
  note_int "journal.bytes" (Unix.stat journal_path).Unix.st_size;
  let t, _c = span "merge" (fun () -> merge_pairs decoded) in
  let verdict = span "contain" (fun () -> Jtype.Contain.check ~root t) in
  span "render" (fun () ->
      ignore (render_inferred t);
      rendered
        (Printf.sprintf "inferred: %s\n%s\n" (Jtype.Types.to_string t)
           (match verdict with
            | Jtype.Contain.Contained ->
                "contained: every instance of the inferred type satisfies the schema"
            | v -> Jtype.Contain.verdict_to_string v)));
  let policy = { Supervisor.default_policy with Supervisor.max_attempts = 2 } in
  let checkpoint = Filename.concat work "tracer-pipeline.ndjson" in
  pipelines ~jobs (fun ~jobs ~telemetry ->
      match
        Pipeline.check_ndjson ~budget:Resilient.unbounded_budget ~policy
          ~checkpoint ~resume:false ~engine:`Streaming ~jobs ~telemetry ~root
          text
      with
      | Ok (_, _, sup) ->
          let s = sup.Pipeline.sup_stats in
          note "supervisor.attempts_per_shard"
            (float_of_int s.Supervisor.attempts
            /. float_of_int (max 1 s.Supervisor.shards))
      | Error e -> die "check: %s" e)

(* --- main ---------------------------------------------------------------- *)

let () =
  let input = ref "" and schema = ref "" and work = ref "." in
  let seconds = ref 10.0 and spans_out = ref "" and render_path = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W infer-tweets | validate-orders | check-sparse-j2");
      ("--input", Arg.Set_string input, "F the workload's corpus");
      ("--schema", Arg.Set_string schema, "S the workload's schema");
      ("--work", Arg.Set_string work, "DIR scratch directory (checkpoint journals)");
      ("--seconds", Arg.Set_float seconds, "N time budget for the passes");
      ("--spans", Arg.Set_string spans_out, "OUT where the spans are written");
      ("--render", Arg.Set_string render_path, "OUT the job's output, rendered in process") ]
    (fun a -> die "unexpected argument %s" a)
    "tracer.exe --workload W --input F [--schema S] --work DIR --seconds N --spans OUT --render OUT";
  let pass =
    match !workload with
    | "infer-tweets" -> fun () -> infer_tweets ~input:!input
    | "validate-orders" -> fun () -> validate_orders ~input:!input ~schema:!schema
    | "check-sparse-j2" ->
        fun () -> check_sparse ~input:!input ~schema:!schema ~work:!work
    | w -> die "unknown workload %S" w
  in
  (* each pass starts from cold fusion caches, as a fresh process does *)
  let run_pass () =
    Jtype.Merge.clear_caches ();
    Gc.compact ();
    pass ()
  in
  let deadline = Unix.gettimeofday () +. !seconds in
  let untraced = ref [] in
  let traced = ref 0 in
  (* at least one pass of each kind; then alternate until the budget ends *)
  while !traced = 0 || !untraced = [] || Unix.gettimeofday () < deadline do
    if !traced <= List.length !untraced then begin
      tracing := true;
      incr pass_no;
      span "pass" run_pass;
      tracing := false;
      incr traced
    end
    else untraced := timed_untraced run_pass :: !untraced
  done;
  tracing := true;
  !epilogue ();
  let oc = open_out_bin !spans_out in
  Json.Printer.to_channel oc (V.Array (List.rev_map span_to_json !spans));
  close_out oc;
  let oc = open_out_bin !render_path in
  Buffer.output_buffer oc render_out;
  close_out oc;
  print_endline
    (Json.Printer.to_string
       (V.Object
          [ ("counts",
             V.Object (Hashtbl.fold (fun k v acc -> (k, V.Float v) :: acc) counts []));
            ("untraced_ms", V.Array (List.rev_map (fun ms -> V.Float ms) !untraced));
            ("traced_passes", V.Int !traced) ]))
