(* Sharded execution on a fixed pool of domains.

   The inference merge is associative and commutative (Jtype.Counting), so
   map/reduce over shards is semantics-preserving by construction; the work
   here is the bookkeeping that makes the parallel path *byte-identical* to
   the sequential one: shards split only at newline boundaries, dead
   letters are produced in whole-input coordinates (Resilient's
   first_line/base_offset) and re-sorted by global position, and reports
   are summed. *)

let default_jobs () = Domain.recommended_domain_count ()

(* --- domain pool with a bounded work queue ----------------------------- *)

module Pool = struct
  type t = {
    queue : (unit -> unit) Queue.t;
    capacity : int;
    mutex : Mutex.t;
    not_empty : Condition.t;
    not_full : Condition.t;
    mutable closed : bool;
    mutable workers : unit Domain.t list;
    tele : Telemetry.sink;
  }

  let rec worker t =
    Mutex.lock t.mutex;
    (* time spent with nothing to do: the starvation signal for shard
       imbalance. Measured around the wait loop, so a worker that never
       blocks contributes near-zero samples. *)
    let idle_from = if Telemetry.is_recording t.tele then Telemetry.now () else 0.0 in
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.not_empty t.mutex
    done;
    if Telemetry.is_recording t.tele then
      Telemetry.observe t.tele "pool.idle_s" (Telemetry.now () -. idle_from);
    if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closed & drained *)
    else begin
      let task = Queue.pop t.queue in
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      task ();
      worker t
    end

  let create ?(telemetry = Telemetry.nop) ~workers ~capacity () =
    let t =
      { queue = Queue.create ();
        capacity = max 1 capacity;
        mutex = Mutex.create ();
        not_empty = Condition.create ();
        not_full = Condition.create ();
        closed = false;
        workers = [];
        tele = telemetry }
    in
    t.workers <- List.init (max 1 workers) (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let submit t task =
    let task =
      if Telemetry.is_recording t.tele then begin
        let enqueued = Telemetry.now () in
        fun () ->
          Telemetry.observe t.tele "pool.queue_wait_s"
            (Telemetry.now () -. enqueued);
          task ()
      end
      else task
    in
    Mutex.lock t.mutex;
    while Queue.length t.queue >= t.capacity do
      Condition.wait t.not_full t.mutex
    done;
    Queue.push task t.queue;
    Condition.signal t.not_empty;
    Mutex.unlock t.mutex

  (* close the queue and wait for every worker to drain and exit *)
  let shutdown t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
end

let run ?(telemetry = Telemetry.nop) ~jobs thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ when jobs <= 1 -> List.map (fun f -> f ()) thunks
  | _ ->
      let thunks = Array.of_list thunks in
      let n = Array.length thunks in
      let results = Array.make n None in
      let pool =
        Pool.create ~telemetry ~workers:(min jobs n) ~capacity:(2 * jobs) ()
      in
      (* exceptions are carried back to the caller, never lost in a domain *)
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          Array.iteri
            (fun i f ->
              Pool.submit pool (fun () ->
                  results.(i) <- Some (try Ok (f ()) with e -> Error e)))
            thunks);
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error e) -> raise e
             | None -> assert false (* shutdown joined every worker *))
           results)

(* --- newline-boundary sharding ----------------------------------------- *)

type shard = {
  s_off : int;   (* byte offset of the shard in the whole input *)
  s_len : int;
  s_line : int;  (* 1-based line its first byte sits on *)
}

let count_newlines src lo hi =
  let c = ref 0 in
  for i = lo to hi - 1 do
    if src.[i] = '\n' then incr c
  done;
  !c

let shards ~jobs src =
  let n = String.length src in
  let jobs = max 1 jobs in
  if n = 0 then []
  else begin
    let target = max 1 (n / jobs) in
    let rec cut acc start line k =
      if start >= n then List.rev acc
      else if k = 1 then List.rev ({ s_off = start; s_len = n - start; s_line = line } :: acc)
      else
        let stop =
          let want = start + target in
          if want >= n then n
          else
            match String.index_from_opt src want '\n' with
            | Some i -> i + 1
            | None -> n
        in
        cut
          ({ s_off = start; s_len = stop - start; s_line = line } :: acc)
          stop
          (line + count_newlines src start stop)
          (k - 1)
    in
    cut [] 0 1 jobs
  end

(* --- sharded resilient ingestion --------------------------------------- *)

let merge_reports (a : Resilient.report) (b : Resilient.report) =
  { Resilient.ok = a.Resilient.ok + b.Resilient.ok;
    quarantined = a.Resilient.quarantined + b.Resilient.quarantined;
    budget_killed = a.Resilient.budget_killed + b.Resilient.budget_killed;
    budget_causes =
      Resilient.merge_causes a.Resilient.budget_causes b.Resilient.budget_causes;
    poisoned = a.Resilient.poisoned + b.Resilient.poisoned;
    truncated = a.Resilient.truncated || b.Resilient.truncated }

let dead_order (a : Resilient.dead_letter) (b : Resilient.dead_letter) =
  compare a.Resilient.byte_offset b.Resilient.byte_offset

let ingest_with ?(budget = Resilient.default_budget) ?options ?(jobs = 1)
    ?(telemetry = Telemetry.nop) ~parse_doc src =
  (* the document-count budget is a global, order-dependent cap: shards
     cannot apply it independently, so it routes through the sequential
     scanner to keep the cut deterministic. [parse_doc] is a factory: one
     instance per shard, so per-shard scratch state (the streaming engine's
     field-name interning table) never crosses a domain. *)
  let sequential () =
    Resilient.ingest_with ~budget ?options ~telemetry ~parse_doc:(parse_doc ())
      src
  in
  if jobs <= 1 || budget.Resilient.max_docs <> None then sequential ()
  else
    match shards ~jobs src with
    | ([] | [ _ ]) -> sequential ()
    | ss ->
        Telemetry.count telemetry "parallel.shards" (List.length ss);
        let parts =
          run ~telemetry ~jobs
            (List.map
               (fun sh () ->
                 Telemetry.span telemetry "ingest.shard" (fun () ->
                     Resilient.ingest_with ~budget ?options
                       ~first_line:sh.s_line ~base_offset:sh.s_off ~telemetry
                       ~parse_doc:(parse_doc ())
                       (String.sub src sh.s_off sh.s_len)))
               ss)
        in
        Telemetry.span telemetry "ingest.merge" (fun () ->
            ( List.concat_map (fun (p, _, _) -> p) parts,
              List.stable_sort dead_order
                (List.concat_map (fun (_, d, _) -> d) parts),
              List.fold_left
                (fun acc (_, _, r) -> merge_reports acc r)
                Resilient.empty_report parts ))

let ingest ?budget ?options ?jobs ?telemetry src =
  let docs, dead, report =
    ingest_with ?budget ?options ?jobs ?telemetry
      ~parse_doc:(fun () ~options ~telemetry src ~pos ->
        Json.Parser.parse_substring ~options ~telemetry src ~pos)
      src
  in
  { Resilient.docs; dead; report }

let parse_ndjson_strict ?(budget = Resilient.unbounded_budget) ?options ?(jobs = 1)
    ?telemetry src =
  let r = ingest ~budget ?options ~jobs ?telemetry src in
  match r.Resilient.dead with
  | [] -> Ok r.Resilient.docs
  | d :: _ -> Error d.Resilient.error

(* --- sharded map/reduce over a materialized collection ----------------- *)

(* contiguous chunks with their global start index *)
let chunked ~jobs xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then [ (0, xs) ]
  else begin
    let per = max 1 ((n + jobs - 1) / jobs) in
    let rec go start acc cur cur_n = function
      | [] ->
          List.rev (if cur = [] then acc else (start, List.rev cur) :: acc)
      | x :: rest ->
          if cur_n = per then
            go (start + per) ((start, List.rev cur) :: acc) [ x ] 1 rest
          else go start acc (x :: cur) (cur_n + 1) rest
    in
    go 0 [] [] 0 xs
  end

(* Emit the hash-consed kernel's counter deltas (interning, and the fusion
   caches of a [Types] merge where one runs) into the sink, so
   [--stats-json] reports what the kernel did during this call and nothing
   else. Counters are per-domain cells summed over all domains; both
   snapshots are taken while no pool is running (run/shutdown joins every
   worker), so the delta is exact. *)
let with_kernel_stats telemetry f =
  if not (Telemetry.is_recording telemetry) then f ()
  else begin
    let before = Jtype.Kernel.totals () in
    let r = f () in
    List.iter
      (fun (k, v) ->
        let b = Option.value ~default:0 (List.assoc_opt k before) in
        if v - b > 0 then Telemetry.count telemetry k (v - b))
      (Jtype.Kernel.totals ());
    r
  end

let infer_counting ~equiv ?(jobs = 1) ?(telemetry = Telemetry.nop) docs =
  if jobs <= 1 then
    Telemetry.span telemetry "infer" (fun () -> Jtype.Counting.infer ~equiv docs)
  else begin
    let chunks = chunked ~jobs docs in
    Telemetry.count telemetry "parallel.merge_fanin" (List.length chunks);
    let partials =
      run ~telemetry ~jobs
        (List.map
           (fun (_, chunk) () ->
             (* per-shard metrics stay out of the sink (chunk boundaries are
                a [jobs] artifact); the shard span is the useful signal *)
             Telemetry.span telemetry "infer.shard" (fun () ->
                 Jtype.Counting.infer ~equiv chunk))
           chunks)
    in
    Telemetry.span telemetry "infer.merge" (fun () ->
        Jtype.Counting.merge_all ~equiv partials)
  end

let validate ?config ?(compiled = true) ?(jobs = 1) ?(telemetry = Telemetry.nop)
    ~root docs =
  (* compiled (default): lower the schema once and share the immutable plan
     across all worker domains, instead of re-parsing and re-interpreting it
     per document. Verdicts and error reports are byte-identical either way;
     the compiled-schema cache makes repeated calls against the same schema
     reuse one compilation. *)
  let check =
    if not compiled then fun v -> Jsonschema.Validate.validate ?config ~root v
    else
      match Jsonschema.Compile.plan_for ~telemetry root with
      | Ok plan -> fun v -> Jsonschema.Compile.run ?config plan v
      | Error es -> fun _ -> Error es
  in
  let validate_chunk (start, chunk) =
    List.mapi
      (fun i v ->
        match check v with
        | Ok () -> None
        | Error es -> Some (start + i, es))
      chunk
    |> List.filter_map Fun.id
  in
  if jobs <= 1 then validate_chunk (0, docs)
  else
    run ~telemetry ~jobs
      (List.map (fun chunk () -> validate_chunk chunk) (chunked ~jobs docs))
    |> List.concat
