(* The runtime under the sharded executor (Pipeline.run_shards): one
   fork/join loop over OCaml 5 domains, newline-boundary sharding, and the
   two merges that make a sharded run byte-identical to the sequential
   scan: dead letters (in whole-input coordinates, via Resilient's
   first_line/base_offset) are re-sorted by global position, and reports
   are summed. *)

(* --- fork/join over domains --------------------------------------------- *)

let run ~jobs thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  (* every domain takes the next thunk until none is left; an exception
     stays in its thunk's slot, so the thunks after it still run *)
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (try Ok (thunks.(i) ()) with e -> Error e);
      work ()
    end
  in
  (* OCaml 5.1 runs at most 128 domains: once the runtime refuses a helper,
     the domains already running take the rest *)
  let rec spawn k helpers =
    if k <= 0 then helpers
    else
      match Domain.spawn work with
      | d -> spawn (k - 1) (d :: helpers)
      | exception Failure _ -> helpers
  in
  let helpers = spawn (min jobs n - 1) [] in
  work ();
  List.iter Domain.join helpers;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false (* the caller's loop ran until none was left *))
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
