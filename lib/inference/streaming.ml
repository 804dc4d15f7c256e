(* Token-level fused inference: fold the lexer's token stream directly into
   hash-consed types, producing exactly what [Types.of_value] and
   [Counting.of_value] would produce on the tree that
   [Parser.parse_substring] would build — without building it.

   Each document goes through two steps.

   1. One [Lexer.skim] pass ({!Json.Shape.record}), a line-by-line mirror
      of [Parser.parse_value]: same node and byte accounting, same depth
      checks, same grammar errors. Field names are interned straight from
      their source spans. The pass records the document's *shape*: one code
      per value or bracket (int and float kept apart) and the interned
      field names in document order.

   2. The typing judgment of a document depends only on its shape, so the
      shape is looked up in the shard's {!Json.Shape} cache. A hit —
      confirmed by comparing the whole recorded shape, never the hash
      alone — returns the cached (type, counting) pair; a miss types the
      recorded shape without touching the source again and caches the
      result.

   When the skim fails for any reason, or the shape is rejected by the
   duplicate-key policy, the document is re-parsed with the tree parser so
   the reported error — and its telemetry — is the canonical one; if that
   re-parse unexpectedly succeeds, its value is typed the classic way.
   Either way the observable behavior is byte-identical to the tree engine,
   which is what the differential oracle pins. *)

module L = Json.Lexer
module P = Json.Parser
module S = Json.Shape
module T = Jtype.Types
module C = Jtype.Counting

(* A cache entry is valid for one equivalence and one duplicate-key policy:
   both change the typing of the same shape. *)
type scratch = (T.t * C.t) S.t

let scratch : unit -> scratch = S.create

let context equiv dup =
  S.dup_context dup + match equiv with Jtype.Merge.Kind -> 0 | Jtype.Merge.Label -> 4

(* --- the shape typer ---------------------------------------------------- *)

(* Scalar results are identical for every occurrence — the type side is
   hash-consed already, and a count-1 leaf is immutable — so one tuple per
   kind serves the whole process instead of one per scalar. *)
let typed_null = (T.null, C.CNull 1)
let typed_bool = (T.bool, C.CBool 1)
let typed_int = (T.int, C.CInt 1)
let typed_float = (T.num, C.CNum 1)
let typed_str = (T.str, C.CStr 1)

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
   is irrelevant — both record constructors sort by field name. [acc] is
   in reverse document order. *)
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
  ( T.rec_ (List.map (fun (k, (t, _)) -> T.field k t) uniq),
    C.CRec
      ( 1,
        sort_cfields
          (List.map
             (fun (k, (_, c)) -> { C.fname = k; occurs = 1; ftype = c })
             uniq) ) )

let rec type_value sc equiv dup =
  match S.take_code sc with
  | 'n' -> typed_null
  | 'b' -> typed_bool
  | 'i' -> typed_int
  | 'f' -> typed_float
  | 's' -> typed_str
  | '[' -> type_elements sc equiv dup [] []
  | _ (* '{' *) -> type_members sc equiv dup []

and type_elements sc equiv dup ttys cs =
  (* [T.union] and [C.merge_all] are order-insensitive; the elements are
     merged once, at the bracket, as [Counting.of_value] merges them *)
  if S.at_close sc ']' then (T.arr (T.union ttys), C.CArr (1, C.merge_all ~equiv cs))
  else
    let t, c = type_value sc equiv dup in
    type_elements sc equiv dup (t :: ttys) (c :: cs)

and type_members sc equiv dup acc =
  if S.at_close sc '}' then close_record dup acc
  else begin
    let key = S.take_key sc in
    let typed = type_value sc equiv dup in
    type_members sc equiv dup ((key, typed) :: acc)
  end

(* The typed pair of the recorded shape, from the cache when it holds the
   shape; [None] when the duplicate-key policy rejects it. *)
let shape_typed sc equiv dup =
  let ctx = context equiv dup in
  match S.find sc ~ctx with
  | Some _ as cached -> cached
  | None -> (
      S.rewind sc;
      match type_value sc equiv dup with
      | exception (Rejected | Stack_overflow) -> None
      | typed ->
          S.add sc ~ctx typed;
          Some typed)

let infer_tokens ?(options = P.default_options) ?(telemetry = Telemetry.nop)
    ?scratch ~equiv src ~pos =
  let sc = match scratch with Some sc -> sc | None -> S.create () in
  let reuse0 = S.reuse sc and hits0 = S.hits sc and misses0 = S.misses sc in
  let w = S.walk sc options src ~pos in
  let skimmed =
    P.run w.S.lx (fun () ->
        S.record w 0;
        S.check_bytes_end w)
  in
  let typed =
    match skimmed with
    | Ok () -> shape_typed sc equiv options.P.dup_keys
    | Error _ -> None
  in
  match typed with
  | Some typed ->
      let stop = L.offset w.S.lx in
      P.emit_doc telemetry options ~bytes:(stop - pos) ~nodes:w.S.nodes;
      if Telemetry.is_recording telemetry then begin
        Telemetry.count telemetry "stream.tokens" w.S.tokens;
        Telemetry.count telemetry "stream.scratch.reuse" (S.reuse sc - reuse0);
        Telemetry.count telemetry "stream.shape.hits" (S.hits sc - hits0);
        Telemetry.count telemetry "stream.shape.misses" (S.misses sc - misses0)
      end;
      Ok (typed, stop)
  | None -> (
      (* Canonical fallback: let the tree parser produce the authoritative
         error (and its telemetry); type its value classically in the
         unexpected case where it succeeds. *)
      match P.parse_substring ~options ~telemetry src ~pos with
      | Ok (v, stop) -> Ok ((T.of_value v, C.of_value ~equiv v), stop)
      | Error e -> Error e)
