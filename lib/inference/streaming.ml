(* Token-level fused inference: fold the lexer's token stream straight into
   a counting accumulator, producing exactly what [Counting.of_value] would
   produce on the tree that [Parser.parse_substring] would build — without
   building the tree or the per-document counting value.

   Each document goes through three steps.

   1. One [Lexer.skim] pass ({!Json.Shape.record}) on the tree parser's
      cursor: its node and byte accounting, its depth checks, its grammar
      errors. Field names are interned straight from their source spans,
      or matched in place when the key before them predicts them. The
      pass records the document's *shape*: one code per value or bracket
      (int and float kept apart) and the interned field names in document
      order.

   2. The typing judgment of a document depends only on its shape, so the
      shape is looked up in the shard's {!Json.Shape} cache. A hit —
      confirmed by comparing the whole recorded shape, never the hash
      alone — only bumps the entry's hit count.

   3. A miss resolves the shape ([resolve]: repeated keys under the
      duplicate-key policy, and each record's label set under [Label]) and
      walks it into the shard's accumulator ([add_shape]) through
      [Counting]'s builder, then remembers it with no hits yet.

   A cache entry keeps only its hit count. When it leaves the cache (at
   the wholesale reset, at the switch-off, or at {!finish}), the cache
   hands over its recorded shape and the entry walks it into the
   accumulator with multiplicity [hits]. So a repeated shape costs one
   increment, and nothing typed outlives its document except through the
   accumulator.

   Both passes over a shape are loops over its codes with explicit stacks,
   and the resolve pass decides everything that can refuse a shape before
   the add pass starts: no path leaves half a document in the accumulator.
   When the skim fails for any reason, or the duplicate-key policy rejects
   the shape, the document is re-parsed with the tree parser so the
   reported error — and its telemetry — is the canonical one; if that
   re-parse unexpectedly succeeds, its value is added the classic way.
   Either way the observable behavior is byte-identical to the tree
   engine, which is what the differential oracle pins. *)

module L = Json.Lexer
module P = Json.Parser
module S = Json.Shape
module C = Jtype.Counting

(* A cache entry counts the documents it answered whose shape has not
   entered an accumulator yet; [dup] is the duplicate-key policy the shape
   is resolved under when it does. An entry is valid for one equivalence
   and one policy, both of which change the typing of the same shape. *)
type entry = { mutable hits : int; dup : P.dup_policy }

let context equiv dup =
  S.dup_context dup + match equiv with Jtype.Merge.Kind -> 0 | Jtype.Merge.Label -> 4

(* --- resolving and adding a shape ---------------------------------------

   The workspace of both passes, reused across a shard's documents. Depth
   [d] is the container opened by the [d]-th open bracket, 0 the document
   itself; [frame.(d)] is negative for an array (and the document), where
   values come without keys, and non-negative for a record.

   Resolve keeps the members of the open records on a stack: [mkey] the
   member's key ordinal, [mcode] the code where its value starts; a
   record's [frame] is the stack height at its '{', [opened] the code of
   that '{'. At the '}' it leaves [labels.(opened)], the record's label
   set (under [Label]), and for each losing member, at its key ordinal
   [j], [skip_code.(j)] and [skip_key.(j)]: the code and key where the
   next member starts, or the '}' and the keys read by then. [losers]
   says whether the shape has any; [skip_code] is -1 elsewhere then.

   Add keeps, per depth, where the values go: [accs.(d)] for an array,
   [recs.(d)] for a record. *)
type work = {
  mutable frame : int array;
  mutable opened : int array;
  mutable accs : C.acc array;
  mutable recs : C.record array;
  mutable mkey : int array;
  mutable mcode : int array;
  mutable labels : string array array;
  mutable skip_code : int array;
  mutable skip_key : int array;
  mutable losers : bool;
}

let work () =
  { frame = Array.make 32 (-1); opened = Array.make 32 0;
    accs = Array.make 32 (C.create ());
    recs = Array.make 32 (C.enter_record (C.create ()) 0 [||]);
    mkey = Array.make 64 0; mcode = Array.make 64 0; labels = [||];
    skip_code = [||]; skip_key = [||]; losers = false }

(* [a] extended to [n] cells, the new ones [fill] *)
let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* room for depth [d] *)
let deeper wk d =
  if d = Array.length wk.frame then begin
    wk.frame <- extend wk.frame (2 * d) (-1);
    wk.opened <- extend wk.opened (2 * d) 0;
    wk.accs <- extend wk.accs (2 * d) wk.accs.(0);
    wk.recs <- extend wk.recs (2 * d) wk.recs.(0)
  end

let push_member wk top key code =
  if top = Array.length wk.mkey then begin
    wk.mkey <- extend wk.mkey (2 * top) 0;
    wk.mcode <- extend wk.mcode (2 * top) 0
  end;
  Array.unsafe_set wk.mkey top key;
  Array.unsafe_set wk.mcode top code

(* Keys are interned, so equal names are one string: small records take
   the quadratic pointer scan, wide ones a sort (the comparator's pointer
   shortcut makes equal names free to confirm). *)
let compare_names (a : string) b = if a == b then 0 else String.compare a b

let sorted_repeats sorted =
  let rec go i = i < Array.length sorted && (sorted.(i) == sorted.(i - 1) || go (i + 1)) in
  go 1

(* the names of the members on the stack from [base] to [top] *)
let member_names wk (s : S.shape) ~base ~top =
  Array.init (top - base) (fun m -> s.S.keys.(wk.mkey.(base + m)))

let has_repeat wk (s : S.shape) ~base ~top =
  if top - base <= 32 then begin
    let name m = Array.unsafe_get s.S.keys (Array.unsafe_get wk.mkey m) in
    let found = ref false and m = ref (base + 1) in
    while (not !found) && !m < top do
      let k = name !m in
      for m' = base to !m - 1 do
        if name m' == k then found := true
      done;
      incr m
    done;
    !found
  end
  else begin
    let sorted = member_names wk s ~base ~top in
    Array.sort compare_names sorted;
    sorted_repeats sorted
  end

(* the distinct names of a sorted array *)
let distinct sorted =
  Array.of_list
    (Array.fold_right
       (fun k ks -> match ks with k' :: _ when k' == k -> ks | _ -> k :: ks)
       sorted [])

(* One member per key, as the tree engine ends up with: [Keep_first] keeps
   the first occurrence; [Keep_last] keeps the last one, and so does
   [Keep_all], through [of_value]'s own last-wins dedup. Every other
   member loses: its value is skipped. *)
let mark_losers wk dup (s : S.shape) ~base ~top ~stop ~next_key =
  if not wk.losers then begin
    wk.losers <- true;
    if Array.length wk.skip_code < s.S.nkeys then begin
      wk.skip_code <- Array.make s.S.nkeys (-1);
      wk.skip_key <- Array.make s.S.nkeys 0
    end
    else Array.fill wk.skip_code 0 s.S.nkeys (-1)
  end;
  let name m = s.S.keys.(wk.mkey.(m)) in
  let winner = Hashtbl.create 16 in
  for m = base to top - 1 do
    if dup <> P.Keep_first || not (Hashtbl.mem winner (name m)) then
      Hashtbl.replace winner (name m) m
  done;
  for m = base to top - 1 do
    if Hashtbl.find winner (name m) <> m then begin
      let j = wk.mkey.(m) in
      if m + 1 < top then begin
        wk.skip_code.(j) <- wk.mcode.(m + 1);
        wk.skip_key.(j) <- wk.mkey.(m + 1)
      end
      else begin
        wk.skip_code.(j) <- stop;
        wk.skip_key.(j) <- next_key
      end
    end
  done

(* The record closing at code [stop], its members on the stack from [base]
   to [top]: false when a key repeats and the policy rejects that. *)
let close_record wk ~equiv dup (s : S.shape) ~opened ~base ~top ~stop ~next_key =
  let repeated =
    match equiv with
    | Jtype.Merge.Kind -> has_repeat wk s ~base ~top
    | Jtype.Merge.Label ->
        let names = member_names wk s ~base ~top in
        Array.sort compare_names names;
        let repeated = sorted_repeats names in
        wk.labels.(opened) <- (if repeated then distinct names else names);
        repeated
  in
  (not repeated)
  || dup <> P.Reject
     && begin
          mark_losers wk dup s ~base ~top ~stop ~next_key;
          true
        end

(* Resolve the shape before anything is added: every record's repeated
   keys under [dup] and, under [Label], its label set. False when [dup]
   rejects the shape; nothing may be added from it then. *)
let resolve wk ~equiv dup (s : S.shape) =
  let codes = s.S.codes in
  wk.losers <- false;
  if equiv = Jtype.Merge.Label && Array.length wk.labels < s.S.ncodes then
    wk.labels <- Array.make (2 * s.S.ncodes) [||];
  wk.frame.(0) <- -1;
  let d = ref 0 and top = ref 0 and key = ref 0 and i = ref 0 and ok = ref true in
  while !ok && !i < s.S.ncodes do
    (match String.unsafe_get codes !i with
     | ']' -> decr d
     | '}' ->
         let base = wk.frame.(!d) in
         ok :=
           close_record wk ~equiv dup s ~opened:wk.opened.(!d) ~base ~top:!top
             ~stop:!i ~next_key:!key;
         top := base;
         decr d
     | c ->
         if wk.frame.(!d) >= 0 then begin
           push_member wk !top !key !i;
           incr top;
           incr key
         end;
         if c = '[' || c = '{' then begin
           incr d;
           deeper wk !d;
           wk.frame.(!d) <- (if c = '[' then -1 else !top);
           wk.opened.(!d) <- !i
         end);
    incr i
  done;
  !ok

(* Walk a resolved shape into [acc], [times] copies of it: each code is one
   builder call, a member's key enters its record's field first, and a
   losing member is skipped whole. *)
let add_shape wk ~equiv ~times acc (s : S.shape) =
  let codes = s.S.codes and keys = s.S.keys and losers = wk.losers in
  wk.frame.(0) <- -1;
  wk.accs.(0) <- acc;
  let d = ref 0 and key = ref 0 and i = ref 0 in
  while !i < s.S.ncodes do
    let c = String.unsafe_get codes !i in
    let in_record = wk.frame.(!d) >= 0 in
    if c = ']' || c = '}' then begin
      decr d;
      incr i
    end
    else if in_record && losers && wk.skip_code.(!key) >= 0 then begin
      let j = !key in
      i := wk.skip_code.(j);
      key := wk.skip_key.(j)
    end
    else begin
      let a =
        if in_record then begin
          let name = Array.unsafe_get keys !key in
          incr key;
          C.enter_field wk.recs.(!d) name times
        end
        else wk.accs.(!d)
      in
      (match c with
       | 'n' -> C.add_null a times
       | 'b' -> C.add_bool a times
       | 'i' -> C.add_int a times
       | 'f' -> C.add_float a times
       | 's' -> C.add_str a times
       | '[' ->
           incr d;
           deeper wk !d;
           wk.frame.(!d) <- -1;
           wk.accs.(!d) <- C.enter_array a times
       | _ (* '{' *) ->
           let labels =
             match equiv with Jtype.Merge.Kind -> [||] | Jtype.Merge.Label -> wk.labels.(!i)
           in
           incr d;
           deeper wk !d;
           wk.frame.(!d) <- 0;
           wk.recs.(!d) <- C.enter_record a times labels);
      incr i
    end
  done

(* --- one document -------------------------------------------------------- *)

type scratch = { shapes : entry S.t; work : work }

let scratch () = { shapes = S.create (); work = work () }

let tokens_c = Telemetry.counter "stream.tokens"
let reuse_c = Telemetry.counter "stream.scratch.reuse"
let hits_c = Telemetry.counter "stream.shape.hits"
let misses_c = Telemetry.counter "stream.shape.misses"

(* One document into [acc]: [Ok (hit, stop)], [hit] when the shape cache
   answered it (its entry counted it; nothing was added), and the offset
   one past it. *)
let take ~options ~telemetry sc ~equiv acc src ~pos =
  let shapes = sc.shapes in
  let reuse0 = S.reuse shapes and hits0 = S.hits shapes and misses0 = S.misses shapes in
  S.restart shapes;
  let w = P.cursor options src ~pos in
  let skimmed =
    P.run w.P.lx (fun () ->
        S.record shapes w (S.root shapes) 0;
        P.check_bytes_end w)
  in
  let dup = options.P.dup_keys in
  let taken =
    match skimmed with
    | Error _ -> None
    | Ok () -> (
        let ctx = context equiv dup in
        match S.find shapes ~ctx with
        | Some e ->
            e.hits <- e.hits + 1;
            Some true
        | None ->
            let shape = S.recorded shapes in
            if resolve sc.work ~equiv dup shape then begin
              add_shape sc.work ~equiv ~times:1 acc shape;
              S.add shapes ~ctx { hits = 0; dup };
              Some false
            end
            else None)
  in
  match taken with
  | Some hit ->
      let stop = L.offset w.P.lx in
      P.emit_doc telemetry options ~bytes:(stop - pos) ~nodes:w.P.nodes;
      if Telemetry.is_recording telemetry then begin
        Telemetry.add telemetry tokens_c w.P.tokens;
        Telemetry.add telemetry reuse_c (S.reuse shapes - reuse0);
        Telemetry.add telemetry hits_c (S.hits shapes - hits0);
        Telemetry.add telemetry misses_c (S.misses shapes - misses0)
      end;
      Ok (hit, stop)
  | None -> (
      (* Canonical fallback: let the tree parser produce the authoritative
         error (and its telemetry); add its value classically in the
         unexpected case where it succeeds. *)
      match P.parse_substring ~options ~telemetry src ~pos with
      | Ok (v, stop) ->
          C.add ~equiv acc (C.of_value ~equiv v);
          Ok (false, stop)
      | Error e -> Error e)

(* --- a shard's fold ------------------------------------------------------ *)

type shard = { sc : scratch; acc : C.acc; equiv : Jtype.Merge.equiv }

let shard ~equiv () =
  let work = work () and acc = C.create () in
  (* an entry leaving the cache adds its shape with its hits' multiplicity *)
  let drop shape e =
    if e.hits > 0 && resolve work ~equiv e.dup shape then
      add_shape work ~equiv ~times:e.hits acc shape
  in
  { sc = { shapes = S.create ~drop (); work }; acc; equiv }

let step ?(options = P.default_options) ?(telemetry = Telemetry.nop) sh src
    ~pos =
  match take ~options ~telemetry sh.sc ~equiv:sh.equiv sh.acc src ~pos with
  | Ok (_, stop) -> Ok stop
  | Error e -> Error e

let finish sh =
  S.clear sh.sc.shapes;
  C.freeze sh.acc

let infer_tokens ?(options = P.default_options) ?(telemetry = Telemetry.nop)
    ?scratch:sc ~equiv src ~pos =
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let acc = C.create () in
  match take ~options ~telemetry sc ~equiv acc src ~pos with
  | Ok (hit, stop) ->
      (* a hit added nothing: walk the recorded shape here *)
      let shape = S.recorded sc.shapes in
      if hit && resolve sc.work ~equiv options.P.dup_keys shape then
        add_shape sc.work ~equiv ~times:1 acc shape;
      let c = C.freeze acc in
      Ok ((C.erase c, c), stop)
  | Error e -> Error e
