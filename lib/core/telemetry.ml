(* Metrics registry: per-domain shards reached through domain-local storage,
   metric names resolved once to dense indices, merged on read.

   Every metric name is resolved once to an index into a process-wide name
   table (one table per kind): at module initialisation for the fixed
   names ([counter], [gauge], [histogram]), and on a shard's first use of
   a name for the string-keyed calls, which keep a per-shard cache of the
   names they resolved. A shard keeps one cell per index, in arrays owned
   by the domain that writes them, so both kinds of call land in the same
   cells.

   A recording sink holds a mutex-protected table of shards keyed by domain
   id. Each domain remembers, in [Domain.DLS], the last sink it recorded
   into and its shard of it, so the registry mutex is taken only on a
   domain's first touch of a sink (and again only when the domain switches
   sinks); a recording call after that is a domain-local read, a physical
   comparison and an array update. OCaml's per-location no-tearing guarantee makes a concurrent snapshot
   memory-safe (it may observe a mid-update shard, which the pipelines
   avoid by snapshotting after their domains are joined). *)

let now () = Unix.gettimeofday ()

(* --- log-scale histogram ------------------------------------------------ *)

module Histogram = struct
  (* quarter-powers-of-two buckets over [1e-9, 1e12]:
     index = floor (log2 v * 4) + bias, clamped. *)
  let sub = 4.0
  let bias = 120 (* covers 2^-30 = ~1e-9 *)
  let nbuckets = 281 (* up to 2^40 = ~1e12 *)

  (* [sums] is [| total; min; max |]: a float array keeps them unboxed, so
     updating them allocates nothing *)
  type t = { mutable n : int; sums : float array; buckets : int array }

  let create () =
    { n = 0; sums = [| 0.0; infinity; neg_infinity |]; buckets = Array.make nbuckets 0 }

  let total h = Array.unsafe_get h.sums 0
  let min_ h = Array.unsafe_get h.sums 1
  let max_ h = Array.unsafe_get h.sums 2

  let bucket_of v =
    if v <= 0.0 then 0
    else
      let i = int_of_float (Float.floor (Float.log2 v *. sub)) + bias in
      if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

  (* geometric midpoint of a bucket *)
  let representative i = Float.exp2 ((float_of_int (i - bias) +. 0.5) /. sub)

  let[@inline] observe h v =
    if Float.is_finite v then begin
      h.n <- h.n + 1;
      Array.unsafe_set h.sums 0 (total h +. v);
      if v < min_ h then Array.unsafe_set h.sums 1 v;
      if v > max_ h then Array.unsafe_set h.sums 2 v;
      let i = bucket_of v in
      h.buckets.(i) <- h.buckets.(i) + 1
    end

  let count h = h.n
  let sum = total

  let percentile h q =
    if h.n = 0 then None
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
      let rec walk i cum =
        if i >= nbuckets then max_ h
        else
          let cum = cum + h.buckets.(i) in
          if cum >= rank then Float.min (max_ h) (Float.max (min_ h) (representative i))
          else walk (i + 1) cum
      in
      Some (walk 0 0)
    end

  let merge_into ~dst src =
    dst.n <- dst.n + src.n;
    dst.sums.(0) <- total dst +. total src;
    if min_ src < min_ dst then dst.sums.(1) <- min_ src;
    if max_ src > max_ dst then dst.sums.(2) <- max_ src;
    Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets
end

type histogram_summary = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

let summarize h =
  let p q = Option.value ~default:0.0 (Histogram.percentile h q) in
  { h_count = Histogram.count h;
    h_sum = Histogram.sum h;
    h_min = (if Histogram.count h = 0 then 0.0 else Histogram.min_ h);
    h_max = (if Histogram.count h = 0 then 0.0 else Histogram.max_ h);
    h_p50 = p 0.5;
    h_p90 = p 0.9;
    h_p99 = p 0.99 }

(* --- metric names ------------------------------------------------------- *)

(* One table per kind: a counter and a gauge may share a name. *)
type names = {
  ids : (string, int) Hashtbl.t;
  mutable by_id : string array;
  mutable n : int;
}

let names_lock = Mutex.create ()
let new_names () = { ids = Hashtbl.create 16; by_id = Array.make 16 ""; n = 0 }
let counter_names = new_names ()
let gauge_names = new_names ()
let histogram_names = new_names ()

(* [a] extended to hold index [i], new cells set to [fill] *)
let grow a i fill =
  let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let resolve t name =
  Mutex.lock names_lock;
  let i =
    match Hashtbl.find_opt t.ids name with
    | Some i -> i
    | None ->
        let i = t.n in
        if i = Array.length t.by_id then t.by_id <- grow t.by_id i "";
        t.by_id.(i) <- name;
        t.n <- i + 1;
        Hashtbl.add t.ids name i;
        i
  in
  Mutex.unlock names_lock;
  i

type counter = int
type gauge = int
type histogram = int

let counter name = resolve counter_names name
let gauge name = resolve gauge_names name
let histogram name = resolve histogram_names name

(* --- shards ------------------------------------------------------------- *)

type span_cell = { mutable calls : int; mutable total_s : float; mutable max_s : float }

(* Cells are indexed by metric index and grown on demand. A counter cell
   only ever receives positive increments, so a positive cell is a counter
   that was counted; a gauge cell has a flag, a histogram cell is [absent]
   until its first sample. *)
type shard = {
  mutable counts : int array;
  mutable gauge_on : bool array;
  mutable gauge_vals : float array;
  mutable hists : Histogram.t array;
  (* the string-keyed calls' resolved names *)
  counter_ids : (string, int) Hashtbl.t;
  gauge_ids : (string, int) Hashtbl.t;
  histogram_ids : (string, int) Hashtbl.t;
  span_cells : (string, span_cell) Hashtbl.t;
  mutable span_stack : string list; (* paths of open spans, innermost first *)
}

(* never observed into: stands for a histogram cell not yet created *)
let absent = { Histogram.n = 0; sums = [||]; buckets = [||] }

(* the cell arrays grow on first use *)
let new_shard () =
  { counts = [||];
    gauge_on = [||];
    gauge_vals = [||];
    hists = [||];
    counter_ids = Hashtbl.create 8;
    gauge_ids = Hashtbl.create 8;
    histogram_ids = Hashtbl.create 8;
    span_cells = Hashtbl.create 16;
    span_stack = [] }

let[@inline] add_cell sh i n =
  let a = sh.counts in
  if i < Array.length a then Array.unsafe_set a i (Array.unsafe_get a i + n)
  else begin
    let a = grow a i 0 in
    sh.counts <- a;
    a.(i) <- n
  end

let[@inline] max_cell sh i v =
  if i >= Array.length sh.gauge_vals then begin
    sh.gauge_vals <- grow sh.gauge_vals i 0.0;
    sh.gauge_on <- grow sh.gauge_on i false
  end;
  if not sh.gauge_on.(i) then begin
    sh.gauge_on.(i) <- true;
    sh.gauge_vals.(i) <- v
  end
  else if v > sh.gauge_vals.(i) then sh.gauge_vals.(i) <- v

(* this shard's histogram [i], made on its first sample *)
let hist_cell sh i =
  if i >= Array.length sh.hists then sh.hists <- grow sh.hists i absent;
  let h = sh.hists.(i) in
  if h != absent then h
  else begin
    let h = Histogram.create () in
    sh.hists.(i) <- h;
    h
  end

let[@inline] observe_cell sh i v =
  let hs = sh.hists in
  let h = if i < Array.length hs then Array.unsafe_get hs i else absent in
  Histogram.observe (if h != absent then h else hist_cell sh i) v

let local_id ids names name =
  match Hashtbl.find_opt ids name with
  | Some i -> i
  | None ->
      let i = resolve names name in
      Hashtbl.add ids name i;
      i

type registry = {
  mutex : Mutex.t;
  shards : (int, shard) Hashtbl.t; (* domain id -> shard *)
}

type sink = Nop | Rec of registry

let nop = Nop
let new_registry () = { mutex = Mutex.create (); shards = Hashtbl.create 8 }
let create () = Rec (new_registry ())
let is_recording = function Nop -> false | Rec _ -> true

(* This domain's shard of [r], made on first touch. *)
let attach r =
  let id = (Domain.self () :> int) in
  Mutex.lock r.mutex;
  let sh =
    match Hashtbl.find_opt r.shards id with
    | Some sh -> sh
    | None ->
        let sh = new_shard () in
        Hashtbl.add r.shards id sh;
        sh
  in
  Mutex.unlock r.mutex;
  sh

(* Per domain: the sink it recorded into last and its shard of it. The
   initial registry is no sink's, so the first touch always attaches. *)
type last = { mutable reg : registry; mutable sh : shard }

let last_key =
  let nobody = new_registry () and unused = new_shard () in
  Domain.DLS.new_key (fun () -> { reg = nobody; sh = unused })

let shard r =
  let l = Domain.DLS.get last_key in
  if l.reg == r then l.sh
  else begin
    let sh = attach r in
    l.reg <- r;
    l.sh <- sh;
    sh
  end

let[@inline] add sink c n =
  match sink with
  | Nop -> ()
  | Rec r -> if n > 0 then add_cell (shard r) c n

let[@inline] raise_to sink g v =
  match sink with
  | Nop -> ()
  | Rec r -> max_cell (shard r) g v

let[@inline] sample sink h v =
  match sink with
  | Nop -> ()
  | Rec r -> observe_cell (shard r) h v

let count sink name n =
  match sink with
  | Nop -> ()
  | Rec r ->
      if n > 0 then begin
        let sh = shard r in
        add_cell sh (local_id sh.counter_ids counter_names name) n
      end

let gauge_max sink name v =
  match sink with
  | Nop -> ()
  | Rec r ->
      let sh = shard r in
      max_cell sh (local_id sh.gauge_ids gauge_names name) v

let observe sink name v =
  match sink with
  | Nop -> ()
  | Rec r ->
      let sh = shard r in
      observe_cell sh (local_id sh.histogram_ids histogram_names name) v

let record_span sh path dt =
  match Hashtbl.find_opt sh.span_cells path with
  | Some c ->
      c.calls <- c.calls + 1;
      c.total_s <- c.total_s +. dt;
      if dt > c.max_s then c.max_s <- dt
  | None -> Hashtbl.add sh.span_cells path { calls = 1; total_s = dt; max_s = dt }

let span sink name f =
  match sink with
  | Nop -> f ()
  | Rec r ->
      let sh = shard r in
      let path =
        match sh.span_stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
      in
      sh.span_stack <- path :: sh.span_stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          let dt = now () -. t0 in
          (match sh.span_stack with
           | _ :: rest -> sh.span_stack <- rest
           | [] -> ());
          record_span sh path dt)
        f

(* --- merging shards ----------------------------------------------------- *)

let shards_of r =
  Mutex.lock r.mutex;
  let shs = Hashtbl.fold (fun _ sh acc -> sh :: acc) r.shards [] in
  Mutex.unlock r.mutex;
  List.rev shs

let widest shs cells = List.fold_left (fun m sh -> max m (Array.length (cells sh))) 0 shs

let merged_counts shs =
  let tot = Array.make (widest shs (fun sh -> sh.counts)) 0 in
  List.iter (fun sh -> Array.iteri (fun i n -> tot.(i) <- tot.(i) + n) sh.counts) shs;
  tot

(* set flags and values; the first shard's value, then the max *)
let merged_gauges shs =
  let w = widest shs (fun sh -> sh.gauge_vals) in
  let on = Array.make w false and vals = Array.make w 0.0 in
  List.iter
    (fun sh ->
      Array.iteri
        (fun i set ->
          if set then begin
            let v = sh.gauge_vals.(i) in
            if not on.(i) then begin
              on.(i) <- true;
              vals.(i) <- v
            end
            else if v > vals.(i) then vals.(i) <- v
          end)
        sh.gauge_on)
    shs;
  (on, vals)

(* --- capture and replay ------------------------------------------------- *)

(* counter handles and their totals, flattened into pairs; gauge handles
   and their levels *)
type recorded = { r_counters : int array; r_gauges : int array; r_levels : float array }

let nothing = { r_counters = [||]; r_gauges = [||]; r_levels = [||] }

let capture f =
  let r = new_registry () in
  let v = f (Rec r) in
  let shs = shards_of r in
  let counts = merged_counts shs and on, vals = merged_gauges shs in
  let counted = List.filter (fun i -> counts.(i) > 0) (List.init (Array.length counts) Fun.id)
  and gauged = List.filter (fun i -> on.(i)) (List.init (Array.length on) Fun.id) in
  ( v,
    { r_counters = Array.of_list (List.concat_map (fun i -> [ i; counts.(i) ]) counted);
      r_gauges = Array.of_list gauged;
      r_levels = Array.of_list (List.map (fun i -> vals.(i)) gauged) } )

(* loops, not closures: a verdict-cache hit replays without allocating *)
let replay sink o =
  match sink with
  | Nop -> ()
  | Rec r ->
      let sh = shard r in
      let c = o.r_counters in
      for k = 0 to (Array.length c / 2) - 1 do
        add_cell sh c.(2 * k) c.((2 * k) + 1)
      done;
      for k = 0 to Array.length o.r_gauges - 1 do
        max_cell sh o.r_gauges.(k) o.r_levels.(k)
      done

(* --- snapshot ----------------------------------------------------------- *)

type span_summary = {
  sp_path : string;
  sp_calls : int;
  sp_total_s : float;
  sp_max_s : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
  spans : span_summary list;
}

let empty_snapshot = { counters = []; gauges = []; histograms = []; spans = [] }

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* the names of the indices [keep] selects, with their values *)
let named names keep value w =
  Mutex.lock names_lock;
  let by_id = names.by_id in
  Mutex.unlock names_lock;
  let acc = ref [] in
  for i = 0 to w - 1 do
    if keep i then acc := (by_id.(i), value i) :: !acc
  done;
  by_name !acc

let snapshot = function
  | Nop -> empty_snapshot
  | Rec r ->
      let shs = shards_of r in
      let counts = merged_counts shs in
      let on, vals = merged_gauges shs in
      let hists = Array.make (widest shs (fun sh -> sh.hists)) absent in
      let spans = Hashtbl.create 16 in
      List.iter
        (fun sh ->
          Array.iteri
            (fun i h ->
              if h != absent then begin
                if hists.(i) == absent then hists.(i) <- Histogram.create ();
                Histogram.merge_into ~dst:hists.(i) h
              end)
            sh.hists;
          Hashtbl.iter
            (fun path c ->
              match Hashtbl.find_opt spans path with
              | Some acc ->
                  acc.calls <- acc.calls + c.calls;
                  acc.total_s <- acc.total_s +. c.total_s;
                  if c.max_s > acc.max_s then acc.max_s <- c.max_s
              | None ->
                  Hashtbl.add spans path
                    { calls = c.calls; total_s = c.total_s; max_s = c.max_s })
            sh.span_cells)
        shs;
      { counters =
          named counter_names (fun i -> counts.(i) > 0) (fun i -> counts.(i))
            (Array.length counts);
        gauges = named gauge_names (fun i -> on.(i)) (fun i -> vals.(i)) (Array.length on);
        histograms =
          named histogram_names
            (fun i -> hists.(i) != absent)
            (fun i -> summarize hists.(i))
            (Array.length hists);
        spans =
          List.map
            (fun (path, c) ->
              { sp_path = path;
                sp_calls = c.calls;
                sp_total_s = c.total_s;
                sp_max_s = c.max_s })
            (by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) spans [])) }
