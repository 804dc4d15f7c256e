(* The runtime under the sharded executor (Pipeline.run_shards): a fixed
   pool of domains, newline-boundary sharding, and the two merges that make
   a sharded run byte-identical to the sequential scan: dead letters (in
   whole-input coordinates, via Resilient's first_line/base_offset) are
   re-sorted by global position, and reports are summed. *)

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

(* --- merging shard results ---------------------------------------------- *)

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
