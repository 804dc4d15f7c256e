(* Document shapes over [Lexer.skim], shared by the streaming engines.

   A per-shard [t] holds three things:

   - an open-addressing intern table for field names, so both spellings of
     a key (raw and escaped) are one string instance, compared by pointer;
     each entry also remembers which keys came next after it last time, so
     the walk can read an expected key by comparing bytes in place;
   - the shape of the current document: one code per value or bracket plus
     the interned field names in document order;
   - a bounded cache from shapes to whatever the caller derives from a
     shape (a hit count for inference, a verdict for validation), which
     hands each entry's shape back to its owner as the entry leaves.

   The walks below read their tokens through [Parser]'s cursor and run its
   node, byte and depth checks in the order its tree walk runs them, with
   its grammar errors. A walk that succeeds has therefore seen exactly the
   document the tree parser would have accepted. *)

module L = Lexer
module P = Parser

(* --- the bounded cache ---------------------------------------------------

   An entry is valid for one context: an integer the caller derives from
   whatever else changes its value for the same shape (equivalence,
   duplicate-key policy). *)

let dup_context = function
  | P.Keep_first -> 0
  | P.Keep_last -> 1
  | P.Reject -> 2
  | P.Keep_all -> 3

(* A recorded shape, read in place: the first [ncodes] bytes of [codes]
   and the first [nkeys] names of [keys]. *)
type shape = { codes : string; ncodes : int; keys : string array; nkeys : int }

type 'a entry = {
  e_hash : int;
  e_ctx : int;
  e_codes : string;
  e_keys : string array;
  e_value : 'a;
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

(* --- per-shard state ----------------------------------------------------- *)

(* An interned field name: its contents, their hash, and whether they are
   plain (no '"', no '\\', no byte below 0x20), so that the raw spelling is
   the contents and [Lexer.skim_key] can read the key by comparing bytes.
   The predictions are plain keys or [none]: [next1], [next2] the two keys
   that last followed this one inside an object, most recent first;
   [first1], [first2] the two that last opened an object that was this
   key's value. They live on the entry, so a rehash moves them with it. *)
type key = {
  name : string;
  hash : int;
  plain : bool;
  mutable next1 : key;
  mutable next2 : key;
  mutable first1 : key;
  mutable first2 : key;
}

(* no key: an empty intern slot, a prediction not made yet, and what
   [first_key] answers for an empty object; never plain, so never matched *)
let rec none =
  { name = ""; hash = 0; plain = false; next1 = none; next2 = none; first1 = none;
    first2 = none }

let new_key name hash =
  { name; hash;
    plain = String.for_all (fun c -> c <> '"' && c <> '\\' && c >= ' ') name;
    next1 = none; next2 = none; first1 = none; first2 = none }

(* Open-addressing intern table keyed by the *contents* bytes of a field
   name. Escape-free names are probed directly from their source span — no
   per-occurrence allocation; names with escapes are materialized first and
   probed by the same content hash, so both spellings of a key intern to
   the same entry. That physical uniqueness is what lets a record close
   path detect duplicate keys, and the cache confirm a hit, with pointer
   comparisons. *)

type 'a t = {
  mutable slots : key array;
  mutable count : int;
  mutable reuse : int;
  root : key;
      (* the parent of the document's root value, and of an array element
         with no member key above it *)
  (* the current document's shape *)
  mutable codes : Bytes.t;
  mutable ncodes : int;
  mutable keys : string array;
  mutable nkeys : int;
  mutable shape_hash : int;
  mutable integral : bool; (* record an integral float as 'g' *)
  (* the cache; [table] is allocated on first insertion *)
  drop : shape -> 'a -> unit;
  mutable table : 'a entry list array;
  mutable entries : int;
  mutable caching : bool;
  mutable hits : int;
  mutable misses : int;
}

let create ?(drop = fun _ _ -> ()) () =
  { slots = Array.make 128 none; count = 0; reuse = 0; root = new_key "" 0;
    codes = Bytes.create 256; ncodes = 0; keys = Array.make 64 ""; nkeys = 0;
    shape_hash = 0; integral = false; drop; table = [||]; entries = 0; caching = true; hits = 0;
    misses = 0 }

let reuse sc = sc.reuse
let root sc = sc.root
let closed = none
let key_name k = k.name
let key_hash k = k.hash
let hits sc = sc.hits
let misses sc = sc.misses
let caching sc = sc.caching

let entry_shape e =
  { codes = e.e_codes; ncodes = String.length e.e_codes; keys = e.e_keys;
    nkeys = Array.length e.e_keys }

(* every way an entry leaves the cache goes through here, so the owner's
   [drop] sees each remembered value exactly once, with its shape *)
let empty sc =
  if sc.entries > 0 then
    Array.iter (List.iter (fun e -> sc.drop (entry_shape e) e.e_value)) sc.table;
  sc.table <- [||];
  sc.entries <- 0

let clear sc =
  empty sc;
  sc.caching <- true;
  sc.hits <- 0;
  sc.misses <- 0

(* --- interning ----------------------------------------------------------- *)

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

let rec add_absent sc k =
  let mask = Array.length sc.slots - 1 in
  let rec probe j =
    if sc.slots.(j) == none then begin
      sc.slots.(j) <- k;
      sc.count <- sc.count + 1;
      if 2 * sc.count > Array.length sc.slots then rehash sc
    end
    else probe ((j + 1) land mask)
  in
  probe (k.hash land mask)

and rehash sc =
  let old = sc.slots in
  sc.slots <- Array.make (2 * Array.length old) none;
  sc.count <- 0;
  Array.iter (fun k -> if k != none then add_absent sc k) old

let insert_at sc j k =
  sc.slots.(j) <- k;
  sc.count <- sc.count + 1;
  if 2 * sc.count > Array.length sc.slots then rehash sc;
  k

(* The probes are loops, not local recursive functions: a closure over the
   probe's state would be allocated for every key occurrence. *)
let intern_span sc src i stop =
  let mask = Array.length sc.slots - 1 in
  let h = content_hash src i stop in
  let j = ref (h land mask) in
  while
    let slot = Array.unsafe_get sc.slots !j in
    slot != none && not (slot.hash = h && span_matches src i stop slot.name)
  do
    j := (!j + 1) land mask
  done;
  let slot = Array.unsafe_get sc.slots !j in
  if slot == none then insert_at sc !j (new_key (String.sub src i (stop - i)) h)
  else begin
    sc.reuse <- sc.reuse + 1;
    slot
  end

let intern_string sc s =
  let mask = Array.length sc.slots - 1 in
  let h = content_hash s 0 (String.length s) in
  let j = ref (h land mask) in
  while
    let slot = Array.unsafe_get sc.slots !j in
    slot != none && not (slot.hash = h && String.equal slot.name s)
  do
    j := (!j + 1) land mask
  done;
  let slot = Array.unsafe_get sc.slots !j in
  if slot == none then insert_at sc !j (new_key s h)
  else begin
    sc.reuse <- sc.reuse + 1;
    slot
  end

(* --- recording ----------------------------------------------------------- *)

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
    let bigger = Array.make (2 * sc.nkeys) "" in
    Array.blit sc.keys 0 bigger 0 sc.nkeys;
    sc.keys <- bigger
  end;
  Array.unsafe_set sc.keys sc.nkeys k.name;
  sc.nkeys <- sc.nkeys + 1;
  sc.shape_hash <- mix sc.shape_hash k.hash

(* --- reading back -------------------------------------------------------- *)

(* The buffer is only read through the view, and the view is only read
   before the next document is recorded over it. *)
let recorded sc =
  { codes = Bytes.unsafe_to_string sc.codes; ncodes = sc.ncodes; keys = sc.keys;
    nkeys = sc.nkeys }

(* --- lookup -------------------------------------------------------------- *)

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

let rec find_in sc ctx = function
  | [] -> None
  | e :: rest ->
      if e.e_hash = sc.shape_hash && e.e_ctx = ctx && same_shape sc e then
        Some e.e_value
      else find_in sc ctx rest

let find sc ~ctx =
  if sc.entries = 0 then None
  else
    match find_in sc ctx sc.table.(sc.shape_hash land (buckets - 1)) with
    | Some _ as hit ->
        sc.hits <- sc.hits + 1;
        hit
    | None -> None

let remember sc ctx v =
  if sc.entries >= max_entries then empty sc;
  if sc.entries = 0 then sc.table <- Array.make buckets [];
  let e =
    { e_hash = sc.shape_hash; e_ctx = ctx;
      e_codes = Bytes.sub_string sc.codes 0 sc.ncodes;
      e_keys = Array.sub sc.keys 0 sc.nkeys; e_value = v }
  in
  let b = sc.shape_hash land (buckets - 1) in
  sc.table.(b) <- e :: sc.table.(b);
  sc.entries <- sc.entries + 1

let add sc ~ctx v =
  sc.misses <- sc.misses + 1;
  if sc.caching then begin
    remember sc ctx v;
    if sc.hits + sc.misses >= warmup && sc.misses > sc.hits then begin
      sc.caching <- false;
      empty sc
    end
  end

(* --- the walk ---------------------------------------------------------------- *)

let restart ?(integral = false) sc =
  sc.ncodes <- 0;
  sc.nkeys <- 0;
  sc.shape_hash <- 0;
  sc.integral <- integral

(* --- reading member keys ---------------------------------------------------

   A member key is read with its colon. While the cache is on, the keys the
   position predicts are tried first: [Lexer.skim_key] compares a plain
   key's spelling with the bytes at the next token, and a match is counted
   as the skim would count it (one token for the key, one for the colon,
   one reuse: a predicted key is interned already) and is neither scanned,
   hashed nor probed. A mismatch consumes only whitespace; the key is then
   skimmed and interned, and becomes the position's first prediction. Once
   the cache has switched itself off, shapes do not repeat and neither do
   key orders: the walk neither consults nor learns predictions. *)

let colon w = match P.next w with L.S_colon -> () | t -> P.unexpected w "':'" t

let guessed sc w g =
  g.plain
  &&
  match L.skim_key w.P.lx g.name with
  | L.No_key -> false
  | L.Key_colon ->
      w.P.tokens <- w.P.tokens + 2;
      sc.reuse <- sc.reuse + 1;
      push_key sc g;
      true
  | L.Key ->
      w.P.tokens <- w.P.tokens + 1;
      sc.reuse <- sc.reuse + 1;
      push_key sc g;
      colon w;
      true

(* the string token just skimmed, interned and recorded, and its colon *)
let read_key sc w =
  let lx = w.P.lx in
  let k =
    if L.last_string_escaped lx then intern_string sc (L.string_of_last lx)
    else intern_span sc (L.source lx) (L.last_string_start lx) (L.last_string_stop lx)
  in
  push_key sc k;
  colon w;
  k

let first_key sc w parent =
  let on = sc.caching in
  if on && guessed sc w parent.first1 then parent.first1
  else if on && guessed sc w parent.first2 then begin
    let k = parent.first2 in
    parent.first2 <- parent.first1;
    parent.first1 <- k;
    k
  end
  else
    match P.next w with
    | L.S_rbrace -> none
    | L.S_string ->
        let k = read_key sc w in
        if on && k.plain && k != parent.first1 then begin
          parent.first2 <- parent.first1;
          parent.first1 <- k
        end;
        k
    | t -> P.unexpected w "a field name" t

let next_key sc w prev =
  let on = sc.caching in
  if on && guessed sc w prev.next1 then prev.next1
  else if on && guessed sc w prev.next2 then begin
    let k = prev.next2 in
    prev.next2 <- prev.next1;
    prev.next1 <- k;
    k
  end
  else
    match P.next w with
    | L.S_string ->
        let k = read_key sc w in
        if on && k.plain && k != prev.next1 then begin
          prev.next2 <- prev.next1;
          prev.next1 <- k
        end;
        k
    | t -> P.unexpected w "a field name" t

(* Whether the float literal just skimmed denotes an integral double, as
   [Float.is_integer] of its parsed value. Without an exponent the literal
   is decided from its digits: an all-zero fraction is integral (an integer
   rounds to an integer double), and a non-zero fraction within 15
   significant digits is not (the distance to the nearest integer, at least
   10^-f, exceeds half an ulp below 10^15). Anything else is parsed. *)
let integral_float lx =
  let src = L.source lx and stop = L.offset lx in
  let i = ref (L.tok_start lx) in
  if String.unsafe_get src !i = '-' then incr i;
  let int_digits = ref 0 in
  while !i < stop && String.unsafe_get src !i <> '.'
        && String.unsafe_get src !i <> 'e' && String.unsafe_get src !i <> 'E' do
    incr int_digits;
    incr i
  done;
  let frac_digits = ref 0 and nonzero = ref false in
  if !i < stop && String.unsafe_get src !i = '.' then begin
    incr i;
    while !i < stop && String.unsafe_get src !i <> 'e' && String.unsafe_get src !i <> 'E' do
      if String.unsafe_get src !i <> '0' then nonzero := true;
      incr frac_digits;
      incr i
    done
  end;
  if !i = stop && not !nonzero then true
  else if !i = stop && !int_digits + !frac_digits <= 15 then false
  else
    match L.number_of_last lx with
    | Number.Float_lit f -> Float.is_integer f
    | Number.Int_lit _ -> false

let float_code sc w = if sc.integral && integral_float w.P.lx then 'g' else 'f'

(* --- recording every token: value, array, elements, object, fields ------- *)

let rec record sc w parent depth =
  P.check_depth w depth;
  let tok = P.next w in
  P.spend_node w;
  P.check_bytes_tok w;
  record_tok sc w parent tok depth

and record_tok sc w parent tok depth =
  match tok with
  | L.S_null -> push_code sc 'n'
  | L.S_true | L.S_false -> push_code sc 'b'
  | L.S_int -> push_code sc 'i'
  | L.S_float -> push_code sc (float_code sc w)
  | L.S_string -> push_code sc 's'
  | L.S_lbracket ->
      push_code sc '[';
      record_array sc w parent depth
  | L.S_lbrace ->
      push_code sc '{';
      record_object sc w parent depth
  | L.S_rbrace | L.S_rbracket | L.S_colon | L.S_comma | L.S_eof ->
      P.unexpected w "a value" tok

(* the elements' objects take the array's parent *)
and record_array sc w parent depth =
  match P.next w with
  | L.S_rbracket -> push_code sc ']'
  | tok ->
      P.check_value w (depth + 1);
      record_tok sc w parent tok (depth + 1);
      record_elements sc w parent depth

and record_elements sc w parent depth =
  match P.next w with
  | L.S_comma ->
      record sc w parent (depth + 1);
      record_elements sc w parent depth
  | L.S_rbracket -> push_code sc ']'
  | t -> P.unexpected w "',' or ']'" t

and record_object sc w parent depth =
  let k = first_key sc w parent in
  if k == none then push_code sc '}' else record_members sc w depth k

and record_members sc w depth k =
  record sc w k (depth + 1);
  match P.next w with
  | L.S_comma -> record_members sc w depth (next_key sc w k)
  | L.S_rbrace -> push_code sc '}'
  | t -> P.unexpected w "',' or '}'" t

(* --- skipping: the same checks, nothing recorded, no tokens counted ------ *)

let rec skim_value w depth =
  P.check_depth w depth;
  let tok = L.skim w.P.lx in
  P.spend_node w;
  P.check_bytes_tok w;
  skim_tok w tok depth

and skim_tok w tok depth =
  match tok with
  | L.S_null | L.S_true | L.S_false | L.S_int | L.S_float | L.S_string -> ()
  | L.S_lbracket -> skim_array w depth
  | L.S_lbrace -> skim_object w depth
  | L.S_rbrace | L.S_rbracket | L.S_colon | L.S_comma | L.S_eof ->
      P.unexpected w "a value" tok

and skim_array w depth =
  match L.skim w.P.lx with
  | L.S_rbracket -> ()
  | tok ->
      P.check_value w (depth + 1);
      skim_tok w tok (depth + 1);
      skim_elements w depth

and skim_elements w depth =
  match L.skim w.P.lx with
  | L.S_comma ->
      skim_value w (depth + 1);
      skim_elements w depth
  | L.S_rbracket -> ()
  | t -> P.unexpected w "',' or ']'" t

and skim_object w depth =
  match L.skim w.P.lx with
  | L.S_rbrace -> ()
  | tok -> skim_fields w depth tok

and skim_fields w depth tok =
  match tok with
  | L.S_string -> (
      match L.skim w.P.lx with
      | L.S_colon -> (
          skim_value w (depth + 1);
          match L.skim w.P.lx with
          | L.S_comma -> skim_fields w depth (L.skim w.P.lx)
          | L.S_rbrace -> ()
          | t -> P.unexpected w "',' or '}'" t)
      | t -> P.unexpected w "':'" t)
  | t -> P.unexpected w "a field name" t

let skip w depth =
  let before = L.offset w.P.lx in
  skim_value w depth;
  w.P.skipped <- w.P.skipped + (L.offset w.P.lx - before)

let skip_tok w tok depth =
  let before = L.offset w.P.lx in
  P.check_value w depth;
  skim_tok w tok depth;
  w.P.skipped <- w.P.skipped + (L.offset w.P.lx - before)
