(* Token-level fused inference: fold the lexer's token stream directly into
   hash-consed types, producing exactly what [Types.of_value] and
   [Counting.of_value] would produce on the tree that
   [Parser.parse_substring] would build — without building it.

   Each document goes through two steps.

   1. One [Lexer.skim] pass, a line-by-line mirror of [Parser.parse_value]:
      same node and byte accounting (spent at the same token positions),
      same depth checks (including the peeked-token ordering at the head of
      a non-empty array), same grammar errors. Field names are interned
      straight from their source spans. The pass records the document's
      *shape*: one code per value or bracket (int and float kept apart) and
      the interned field names in document order.

   2. The typing judgment of a document depends only on its shape, so the
      shape is looked up in a per-shard cache. A hit — confirmed by
      comparing the whole recorded shape, never the hash alone — returns
      the cached (type, counting) pair; a miss types the recorded shape
      without touching the source again and caches the result.

   When the skim fails for any reason, or the shape is rejected by the
   duplicate-key policy, the document is re-parsed with the tree parser so
   the reported error — and its telemetry — is the canonical one; if that
   re-parse unexpectedly succeeds, its value is typed the classic way.
   Either way the observable behavior is byte-identical to the tree engine,
   which is what the differential oracle pins. *)

module L = Json.Lexer
module P = Json.Parser
module T = Jtype.Types
module C = Jtype.Counting

(* --- shape cache ---------------------------------------------------------

   An entry is valid for one equivalence and one duplicate-key policy: both
   change the typing of the same shape. *)

type entry = {
  e_hash : int;
  e_equiv : Jtype.Merge.equiv;
  e_dup : P.dup_policy;
  e_codes : string;
  e_keys : string array;
  e_typed : T.t * C.t;
}

(* The table is emptied wholesale when it reaches [max_entries]: that bounds
   its memory whatever the input, and a cleared table refills with the
   shapes still in use. An entry costs at most a byte per node plus a
   pointer per key, less than the counting value its document yields
   anyway. 4096 entries hold every distinct shape of the 100k-document
   tweets corpus (about 3,900). *)
let max_entries = 4096

let buckets = 2 * max_entries (* a power of two *)

(* After [warmup] documents the cache switches itself off for the rest of
   the shard as soon as misses outnumber hits: on a corpus of distinct
   shapes every lookup is a wasted comparison plus a copy of the shape, and
   the retained entries only cost memory. 1024 documents are enough for a
   repetitive corpus to show its repeats (the first 1024 tweets already
   hit 80% of the time) and few enough that a corpus of distinct shapes
   pays for at most 1024 useless insertions. *)
let warmup = 1024

(* --- per-shard scratch ------------------------------------------------- *)

(* Open-addressing intern table keyed by the *contents* bytes of a field
   name. Escape-free names are probed directly from their source span — no
   per-occurrence allocation; names with escapes are materialized first and
   probed by the same content hash, so both spellings of a key intern to
   the same string instance. That physical uniqueness is what lets the
   record close path detect duplicate keys, and the cache confirm a hit,
   with pointer comparisons. *)

let sentinel = String.make 1 '\000' (* slot emptiness: compared with ==, never = *)

type scratch = {
  mutable slots : string array;
  mutable count : int;
  mutable reuse : int;
  mutable key_hash : int; (* content hash of the last interned key *)
  (* the current document's shape *)
  mutable codes : Bytes.t;
  mutable ncodes : int;
  mutable keys : string array;
  mutable nkeys : int;
  mutable shape_hash : int;
  (* typing cursors into the shape *)
  mutable next_code : int;
  mutable next_key : int;
  (* the shape cache; [table] is allocated on first insertion *)
  mutable table : entry list array;
  mutable entries : int;
  mutable caching : bool;
  mutable hits : int;
  mutable misses : int;
}

let make_scratch () =
  { slots = Array.make 128 sentinel; count = 0; reuse = 0; key_hash = 0;
    codes = Bytes.create 256; ncodes = 0; keys = Array.make 64 sentinel;
    nkeys = 0; shape_hash = 0; next_code = 0; next_key = 0; table = [||];
    entries = 0; caching = true; hits = 0; misses = 0 }

let scratch = make_scratch

(* FNV-1a over a byte span, masked positive. *)
let content_hash s i stop =
  let h = ref 0x811c9dc5 in
  for k = i to stop - 1 do
    h := (!h lxor Char.code (String.unsafe_get s k)) * 0x01000193 land max_int
  done;
  !h

let span_matches src i stop s =
  let n = String.length s in
  n = stop - i
  &&
  let k = ref 0 in
  while !k < n && String.unsafe_get s !k = String.unsafe_get src (i + !k) do
    incr k
  done;
  !k = n

let rec add_absent sc s =
  let mask = Array.length sc.slots - 1 in
  let h = content_hash s 0 (String.length s) in
  let rec probe k =
    let j = (h + k) land mask in
    if sc.slots.(j) == sentinel then begin
      sc.slots.(j) <- s;
      sc.count <- sc.count + 1;
      if 2 * sc.count > Array.length sc.slots then rehash sc
    end
    else probe (k + 1)
  in
  probe 0

and rehash sc =
  let old = sc.slots in
  sc.slots <- Array.make (2 * Array.length old) sentinel;
  sc.count <- 0;
  Array.iter (fun s -> if s != sentinel then add_absent sc s) old

let insert_at sc j s =
  sc.slots.(j) <- s;
  sc.count <- sc.count + 1;
  if 2 * sc.count > Array.length sc.slots then rehash sc;
  s

(* The probes are loops, not local recursive functions: a closure over the
   probe's state would be allocated for every key occurrence. *)
let intern_span sc src i stop =
  let mask = Array.length sc.slots - 1 in
  let h = content_hash src i stop in
  sc.key_hash <- h;
  let j = ref (h land mask) in
  while
    let slot = Array.unsafe_get sc.slots !j in
    slot != sentinel && not (span_matches src i stop slot)
  do
    j := (!j + 1) land mask
  done;
  let slot = Array.unsafe_get sc.slots !j in
  if slot == sentinel then insert_at sc !j (String.sub src i (stop - i))
  else begin
    sc.reuse <- sc.reuse + 1;
    slot
  end

let intern_string sc s =
  let mask = Array.length sc.slots - 1 in
  let h = content_hash s 0 (String.length s) in
  sc.key_hash <- h;
  let j = ref (h land mask) in
  while
    let slot = Array.unsafe_get sc.slots !j in
    slot != sentinel && not (String.equal slot s)
  do
    j := (!j + 1) land mask
  done;
  let slot = Array.unsafe_get sc.slots !j in
  if slot == sentinel then insert_at sc !j s
  else begin
    sc.reuse <- sc.reuse + 1;
    slot
  end

(* --- shape recording ----------------------------------------------------

   Codes: 'n' null, 'b' boolean, 'i' integer, 'f' float, 's' string,
   '[' ']' array brackets, '{' '}' record braces. A record member is its
   key (the next entry of [keys]) followed by its value's codes, so the
   codes and the keys together determine the document's tree up to scalar
   payloads — everything the typing judgment reads. *)

let mix h x = (h * 0x01000193) lxor x land max_int

let push_code sc c =
  if sc.ncodes = Bytes.length sc.codes then begin
    let bigger = Bytes.create (2 * sc.ncodes) in
    Bytes.blit sc.codes 0 bigger 0 sc.ncodes;
    sc.codes <- bigger
  end;
  Bytes.unsafe_set sc.codes sc.ncodes c;
  sc.ncodes <- sc.ncodes + 1;
  sc.shape_hash <- mix sc.shape_hash (Char.code c)

let push_key sc k =
  if sc.nkeys = Array.length sc.keys then begin
    let bigger = Array.make (2 * sc.nkeys) sentinel in
    Array.blit sc.keys 0 bigger 0 sc.nkeys;
    sc.keys <- bigger
  end;
  Array.unsafe_set sc.keys sc.nkeys k;
  sc.nkeys <- sc.nkeys + 1;
  sc.shape_hash <- mix sc.shape_hash sc.key_hash

(* --- the grammar-and-budget walk ---------------------------------------- *)

type walk = {
  lx : L.t;
  sc : scratch;
  start : int;
  max_depth : int;
  max_nodes : int option;
  max_doc_bytes : int option;
  mutable nodes : int;
  mutable tokens : int;
}

let next w =
  w.tokens <- w.tokens + 1;
  L.skim w.lx

let spend_node w =
  w.nodes <- w.nodes + 1;
  match w.max_nodes with
  | Some limit when w.nodes > limit ->
      P.fail ~kind:(P.Budget_exceeded P.Nodes_exceeded) (L.tok_pos w.lx)
        (Printf.sprintf "document exceeds %d nodes" limit)
  | _ -> ()

(* Byte budget against the last token's start — positions are built lazily,
   only if the check fails. *)
let check_bytes_tok w =
  match w.max_doc_bytes with
  | Some limit when L.tok_start w.lx - w.start > limit ->
      P.fail ~kind:(P.Budget_exceeded P.Bytes_exceeded) (L.tok_pos w.lx)
        (Printf.sprintf "document exceeds %d bytes" limit)
  | _ -> ()

let check_bytes_end w =
  match w.max_doc_bytes with
  | Some limit when L.offset w.lx - w.start > limit ->
      P.fail ~kind:(P.Budget_exceeded P.Bytes_exceeded) (L.position w.lx)
        (Printf.sprintf "document exceeds %d bytes" limit)
  | _ -> ()

let check_depth w depth =
  if depth > w.max_depth then
    P.fail ~kind:(P.Budget_exceeded P.Depth_exceeded) (L.position w.lx)
      "maximum nesting depth exceeded"

let unexpected w what t =
  P.fail (L.tok_pos w.lx) (Printf.sprintf "expected %s, got %s" what (L.skim_name t))

let intern_key w =
  let lx = w.lx in
  let key =
    if L.last_string_escaped lx then intern_string w.sc (L.string_of_last lx)
    else
      intern_span w.sc (L.source lx) (L.last_string_start lx)
        (L.last_string_stop lx)
  in
  push_key w.sc key

let rec value w depth =
  check_depth w depth;
  let tok = next w in
  spend_node w;
  check_bytes_tok w;
  value_tok w tok depth

and value_tok w tok depth =
  match tok with
  | L.S_null -> push_code w.sc 'n'
  | L.S_true | L.S_false -> push_code w.sc 'b'
  | L.S_int -> push_code w.sc 'i'
  | L.S_float -> push_code w.sc 'f'
  | L.S_string -> push_code w.sc 's'
  | L.S_lbracket ->
      push_code w.sc '[';
      array w depth
  | L.S_lbrace ->
      push_code w.sc '{';
      object_ w depth
  | L.S_rbrace | L.S_rbracket | L.S_colon | L.S_comma | L.S_eof ->
      unexpected w "a value" tok

and array w depth =
  (* [parse_value] peeks for ']', lexing the first element's token before
     its depth check; reading the token first reproduces that failure
     order exactly. *)
  match next w with
  | L.S_rbracket -> push_code w.sc ']'
  | tok ->
      check_depth w (depth + 1);
      spend_node w;
      check_bytes_tok w;
      value_tok w tok (depth + 1);
      elements w depth

and elements w depth =
  match next w with
  | L.S_comma ->
      value w (depth + 1);
      elements w depth
  | L.S_rbracket -> push_code w.sc ']'
  | t -> unexpected w "',' or ']'" t

and object_ w depth =
  match next w with
  | L.S_rbrace -> push_code w.sc '}'
  | tok -> fields w depth tok

and fields w depth tok =
  match tok with
  | L.S_string -> (
      intern_key w;
      match next w with
      | L.S_colon -> (
          value w (depth + 1);
          match next w with
          | L.S_comma -> fields w depth (next w)
          | L.S_rbrace -> push_code w.sc '}'
          | t -> unexpected w "',' or '}'" t)
      | t -> unexpected w "':'" t)
  | t -> unexpected w "a field name" t

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

let take_code sc =
  let c = Bytes.unsafe_get sc.codes sc.next_code in
  sc.next_code <- sc.next_code + 1;
  c

let at_close sc c =
  Bytes.unsafe_get sc.codes sc.next_code = c
  && begin
       sc.next_code <- sc.next_code + 1;
       true
     end

let rec type_value sc equiv dup =
  match take_code sc with
  | 'n' -> typed_null
  | 'b' -> typed_bool
  | 'i' -> typed_int
  | 'f' -> typed_float
  | 's' -> typed_str
  | '[' -> type_elements sc equiv dup [] C.CBot
  | _ (* '{' *) -> type_members sc equiv dup []

and type_elements sc equiv dup ttys cacc =
  (* [T.union] is order-insensitive; the counting merge runs in document
     order, as [Counting.of_value]'s does *)
  if at_close sc ']' then (T.arr (T.union ttys), C.CArr (1, cacc))
  else
    let t, c = type_value sc equiv dup in
    type_elements sc equiv dup (t :: ttys) (C.merge ~equiv cacc c)

and type_members sc equiv dup acc =
  if at_close sc '}' then close_record dup acc
  else begin
    let key = sc.keys.(sc.next_key) in
    sc.next_key <- sc.next_key + 1;
    let typed = type_value sc equiv dup in
    type_members sc equiv dup ((key, typed) :: acc)
  end

(* --- lookup ------------------------------------------------------------- *)

let same_shape sc e =
  let n = sc.ncodes and m = sc.nkeys in
  String.length e.e_codes = n
  && Array.length e.e_keys = m
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get sc.codes !i = String.unsafe_get e.e_codes !i do
    incr i
  done;
  !i = n
  &&
  let j = ref 0 in
  while !j < m && Array.unsafe_get sc.keys !j == Array.unsafe_get e.e_keys !j do
    incr j
  done;
  !j = m

let rec find sc equiv dup = function
  | [] -> None
  | e :: rest ->
      if e.e_hash = sc.shape_hash && e.e_equiv = equiv && e.e_dup = dup
         && same_shape sc e
      then Some e.e_typed
      else find sc equiv dup rest

let remember sc equiv dup typed =
  if sc.entries = 0 || sc.entries >= max_entries then begin
    sc.table <- Array.make buckets [];
    sc.entries <- 0
  end;
  let e =
    { e_hash = sc.shape_hash; e_equiv = equiv; e_dup = dup;
      e_codes = Bytes.sub_string sc.codes 0 sc.ncodes;
      e_keys = Array.sub sc.keys 0 sc.nkeys; e_typed = typed }
  in
  let b = sc.shape_hash land (buckets - 1) in
  sc.table.(b) <- e :: sc.table.(b);
  sc.entries <- sc.entries + 1

let type_shape sc equiv dup =
  sc.next_code <- 0;
  sc.next_key <- 0;
  type_value sc equiv dup

(* The typed pair of the recorded shape, from the cache when it holds the
   shape; [None] when the duplicate-key policy rejects it. *)
let shape_typed sc equiv dup =
  let cached =
    if sc.entries > 0 then
      find sc equiv dup sc.table.(sc.shape_hash land (buckets - 1))
    else None
  in
  match cached with
  | Some _ ->
      sc.hits <- sc.hits + 1;
      cached
  | None -> (
      match type_shape sc equiv dup with
      | exception (Rejected | Stack_overflow) -> None
      | typed ->
          sc.misses <- sc.misses + 1;
          if sc.caching then begin
            remember sc equiv dup typed;
            if sc.hits + sc.misses >= warmup && sc.misses > sc.hits then begin
              sc.caching <- false;
              sc.table <- [||];
              sc.entries <- 0
            end
          end;
          Some typed)

let infer_tokens ?(options = P.default_options) ?(telemetry = Telemetry.nop)
    ?scratch ~equiv src ~pos =
  let lx = L.create ~pos ?max_string_bytes:options.P.max_string_bytes src in
  let sc = match scratch with Some sc -> sc | None -> make_scratch () in
  let reuse0 = sc.reuse and hits0 = sc.hits and misses0 = sc.misses in
  sc.ncodes <- 0;
  sc.nkeys <- 0;
  sc.shape_hash <- 0;
  let w =
    { lx; sc; start = pos; max_depth = options.P.max_depth;
      max_nodes = options.P.max_nodes; max_doc_bytes = options.P.max_doc_bytes;
      nodes = 0; tokens = 0 }
  in
  let skimmed =
    P.run lx (fun () ->
        value w 0;
        check_bytes_end w)
  in
  let typed =
    match skimmed with
    | Ok () -> shape_typed sc equiv options.P.dup_keys
    | Error _ -> None
  in
  match typed with
  | Some typed ->
      let stop = L.offset lx in
      P.emit_doc telemetry options ~bytes:(stop - pos) ~nodes:w.nodes;
      if Telemetry.is_recording telemetry then begin
        Telemetry.count telemetry "stream.tokens" w.tokens;
        Telemetry.count telemetry "stream.scratch.reuse" (sc.reuse - reuse0);
        Telemetry.count telemetry "stream.shape.hits" (sc.hits - hits0);
        Telemetry.count telemetry "stream.shape.misses" (sc.misses - misses0)
      end;
      Ok (typed, stop)
  | None -> (
      (* Canonical fallback: let the tree parser produce the authoritative
         error (and its telemetry); type its value classically in the
         unexpected case where it succeeds. *)
      match P.parse_substring ~options ~telemetry src ~pos with
      | Ok (v, stop) -> Ok ((T.of_value v, C.of_value ~equiv v), stop)
      | Error e -> Error e)
