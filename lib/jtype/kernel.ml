(* Per-domain counters for the hash-consed type kernel.

   The kernel (interning in Types, memoized decisions in Subtype) runs on
   every domain of the parallel pipelines, so its statistics cannot live
   in one mutable cell without cross-domain races — and taking a lock on
   the interning hot path would defeat the point of per-domain tables.
   Instead
   each (counter, domain) pair gets a private cell, created on the
   domain's first touch and registered in a global list under a mutex;
   [totals] folds the registry by counter name. Reading while other
   domains are mid-flight is safe (cells are plain ints, torn reads
   impossible on word-sized values); the pipelines only snapshot around
   joined parallel sections anyway. *)

type cell = { name : string; mutable count : int }

let registry_mu = Mutex.create ()
let registry : cell list ref = ref []

type counter = cell Domain.DLS.key

let counter name : counter =
  Domain.DLS.new_key (fun () ->
      let c = { name; count = 0 } in
      Mutex.protect registry_mu (fun () -> registry := c :: !registry);
      c)

let hit (k : counter) =
  let c = Domain.DLS.get k in
  c.count <- c.count + 1

let add (k : counter) n =
  let c = Domain.DLS.get k in
  c.count <- c.count + n

let totals () =
  let cells = Mutex.protect registry_mu (fun () -> !registry) in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl c.name) in
      Hashtbl.replace tbl c.name (prev + c.count))
    cells;
  List.sort Stdlib.compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
