(* Token-level fused inference: fold the lexer's token stream directly into
   counting types, producing exactly what [Counting.of_value] would produce
   on the tree that [Parser.parse_substring] would build — without building
   it.

   Each document goes through two steps.

   1. One [Lexer.skim] pass ({!Json.Shape.record}), a line-by-line mirror
      of [Parser.parse_value]: same node and byte accounting, same depth
      checks, same grammar errors. Field names are interned straight from
      their source spans, or matched in place when the key before them
      predicts them. The pass records the document's *shape*: one code
      per value or bracket (int and float kept apart) and the interned
      field names in document order.

   2. The typing judgment of a document depends only on its shape, so the
      shape is looked up in the shard's {!Json.Shape} cache. A hit —
      confirmed by comparing the whole recorded shape, never the hash
      alone — answers with the cached counting value; a miss types the
      recorded shape without touching the source again and caches the
      result.

   A shard's fold ({!shard}) keeps one counting accumulator. A miss adds
   its value at once. A hit only bumps its cache entry's count, and the
   count is added with its multiplicity when the entry leaves the cache:
   at the wholesale reset, at the switch-off, or at {!finish}. So a
   repeated shape costs one increment, and nothing typed outlives its
   document except through the accumulator and the cache.

   When the skim fails for any reason, or the shape is rejected by the
   duplicate-key policy, the document is re-parsed with the tree parser so
   the reported error — and its telemetry — is the canonical one; if that
   re-parse unexpectedly succeeds, its value is typed the classic way.
   Either way the observable behavior is byte-identical to the tree engine,
   which is what the differential oracle pins. *)

module L = Json.Lexer
module P = Json.Parser
module S = Json.Shape
module C = Jtype.Counting

(* A cache entry is valid for one equivalence and one duplicate-key policy:
   both change the typing of the same shape. [hits] counts the documents
   the entry answered whose value has not entered an accumulator yet. *)
type entry = { value : C.t; mutable hits : int }

type scratch = entry S.t

let scratch () : scratch = S.create ()

let context equiv dup =
  S.dup_context dup + match equiv with Jtype.Merge.Kind -> 0 | Jtype.Merge.Label -> 4

(* --- the shape typer ---------------------------------------------------- *)

(* A count-1 leaf is immutable, so one value per kind serves the whole
   process instead of one per scalar. *)
let typed_null = C.CNull 1
let typed_bool = C.CBool 1
let typed_int = C.CInt 1
let typed_float = C.CNum 1
let typed_str = C.CStr 1

(* Raised when the duplicate-key policy rejects the shape; the tree parser
   then reports the canonical error. *)
exception Rejected

let sort_cfields = List.sort (fun a b -> String.compare a.C.fname b.C.fname)

(* Keys are interned, so physical equality is key equality. Small records
   take the quadratic pointer scan; wide ones a sort plus adjacency check
   (the comparator's pointer shortcut makes equal keys free to confirm). *)
let has_dup_keys acc =
  let rec mem_key k = function
    | [] -> false
    | (k', _) :: rest -> k' == k || mem_key k rest
  in
  let rec small = function
    | [] -> false
    | (k, _) :: rest -> mem_key k rest || small rest
  in
  if List.compare_length_with acc 12 <= 0 then small acc
  else
    let sorted =
      List.sort
        (fun (a, _) (b, _) -> if a == b then 0 else String.compare a b)
        acc
    in
    let rec adjacent_dup = function
      | (a, _) :: ((b, _) :: _ as rest) -> a == b || adjacent_dup rest
      | _ -> false
    in
    adjacent_dup sorted

(* One member per key, as the tree engine ends up with: [Keep_first] keeps
   the first occurrence's value; [Keep_last] keeps the last one, and so
   does [Keep_all], through [of_value]'s own last-wins dedup. Member order
   is irrelevant — the record is sorted by field name. [acc] is in reverse
   document order. *)
let resolve_fields dup acc =
  let in_order =
    match dup with
    | P.Reject -> raise Rejected
    | P.Keep_first -> List.rev acc
    | P.Keep_last | P.Keep_all -> acc
  in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    in_order

let close_record dup acc =
  (* No-dup fast path: every policy keeps every member when each key is
     distinct — the overwhelmingly common case. *)
  let uniq = if has_dup_keys acc then resolve_fields dup acc else acc in
  C.CRec
    ( 1,
      sort_cfields
        (List.map (fun (k, c) -> { C.fname = k; occurs = 1; ftype = c }) uniq) )

let rec type_value sc equiv dup =
  match S.take_code sc with
  | 'n' -> typed_null
  | 'b' -> typed_bool
  | 'i' -> typed_int
  | 'f' -> typed_float
  | 's' -> typed_str
  | '[' -> type_elements sc equiv dup []
  | _ (* '{' *) -> type_members sc equiv dup []

and type_elements sc equiv dup cs =
  (* the elements are merged once, at the bracket, as [Counting.of_value]
     merges them *)
  if S.at_close sc ']' then C.CArr (1, C.merge_all ~equiv cs)
  else type_elements sc equiv dup (type_value sc equiv dup :: cs)

and type_members sc equiv dup acc =
  if S.at_close sc '}' then close_record dup acc
  else begin
    let key = S.take_key sc in
    let typed = type_value sc equiv dup in
    type_members sc equiv dup ((key, typed) :: acc)
  end

(* The counting value of the recorded shape and whether it is new: a hit
   bumps the cache entry's count and answers [false]; a miss types the
   shape, caches it with no hits yet and answers [true]. [None] when the
   duplicate-key policy rejects the shape. *)
let shape_typed sc equiv dup =
  let ctx = context equiv dup in
  match S.find sc ~ctx with
  | Some e ->
      e.hits <- e.hits + 1;
      Some (e.value, false)
  | None -> (
      S.rewind sc;
      match type_value sc equiv dup with
      | exception (Rejected | Stack_overflow) -> None
      | value ->
          S.add sc ~ctx { value; hits = 0 };
          Some (value, true))

let tokens_c = Telemetry.counter "stream.tokens"
let reuse_c = Telemetry.counter "stream.scratch.reuse"
let hits_c = Telemetry.counter "stream.shape.hits"
let misses_c = Telemetry.counter "stream.shape.misses"

(* One document: its counting value, whether it is new (see
   [shape_typed]; a value typed from the tree always is), and the offset
   one past it. *)
let type_tokens ~options ~telemetry sc ~equiv src ~pos =
  let reuse0 = S.reuse sc and hits0 = S.hits sc and misses0 = S.misses sc in
  S.restart sc;
  let w = S.walk options src ~pos in
  let skimmed =
    P.run w.S.lx (fun () ->
        S.record sc w (S.root sc) 0;
        S.check_bytes_end w)
  in
  let typed =
    match skimmed with
    | Ok () -> shape_typed sc equiv options.P.dup_keys
    | Error _ -> None
  in
  match typed with
  | Some (c, fresh) ->
      let stop = L.offset w.S.lx in
      P.emit_doc telemetry options ~bytes:(stop - pos) ~nodes:w.S.nodes;
      if Telemetry.is_recording telemetry then begin
        Telemetry.add telemetry tokens_c w.S.tokens;
        Telemetry.add telemetry reuse_c (S.reuse sc - reuse0);
        Telemetry.add telemetry hits_c (S.hits sc - hits0);
        Telemetry.add telemetry misses_c (S.misses sc - misses0)
      end;
      Ok (c, fresh, stop)
  | None -> (
      (* Canonical fallback: let the tree parser produce the authoritative
         error (and its telemetry); type its value classically in the
         unexpected case where it succeeds. *)
      match P.parse_substring ~options ~telemetry src ~pos with
      | Ok (v, stop) -> Ok (C.of_value ~equiv v, true, stop)
      | Error e -> Error e)

(* --- a shard's fold ------------------------------------------------------ *)

type shard = { sc : scratch; acc : C.acc; equiv : Jtype.Merge.equiv }

let shard ~equiv () =
  let acc = C.create () in
  (* an entry leaving the cache settles its hits, with their multiplicity *)
  let drop e = if e.hits > 0 then C.add ~times:e.hits ~equiv acc e.value in
  { sc = S.create ~drop (); acc; equiv }

let step ?(options = P.default_options) ?(telemetry = Telemetry.nop) sh src
    ~pos =
  match type_tokens ~options ~telemetry sh.sc ~equiv:sh.equiv src ~pos with
  | Ok (c, fresh, stop) ->
      if fresh then C.add ~equiv:sh.equiv sh.acc c;
      Ok stop
  | Error e -> Error e

let finish sh =
  S.clear sh.sc;
  C.freeze sh.acc

let infer_tokens ?(options = P.default_options) ?(telemetry = Telemetry.nop)
    ?scratch ~equiv src ~pos =
  let sc = match scratch with Some sc -> sc | None -> S.create () in
  match type_tokens ~options ~telemetry sc ~equiv src ~pos with
  | Ok (c, _, stop) -> Ok ((C.erase c, c), stop)
  | Error e -> Error e
