(* Length of the valid UTF-8 scalar sequence starting at [s.[i]], or 0.
   Encodes the exact RFC 3629 ranges: no overlong forms (C0/C1, E0 80-9F,
   F0 80-8F), no surrogates (ED A0-BF), nothing above U+10FFFF (F4 90+). *)
let utf8_scalar_len s i =
  let n = String.length s in
  let byte k = Char.code s.[k] in
  let cont k = k < n && byte k land 0xC0 = 0x80 in
  let b0 = byte i in
  if b0 < 0x80 then 1
  else if b0 < 0xC2 then 0 (* continuation byte or overlong lead *)
  else if b0 < 0xE0 then if cont (i + 1) then 2 else 0
  else if b0 < 0xF0 then begin
    let lo, hi =
      if b0 = 0xE0 then (0xA0, 0xBF)
      else if b0 = 0xED then (0x80, 0x9F) (* exclude surrogates *)
      else (0x80, 0xBF)
    in
    if i + 1 < n && byte (i + 1) >= lo && byte (i + 1) <= hi && cont (i + 2)
    then 3
    else 0
  end
  else if b0 <= 0xF4 then begin
    let lo, hi =
      if b0 = 0xF0 then (0x90, 0xBF)
      else if b0 = 0xF4 then (0x80, 0x8F)
      else (0x80, 0xBF)
    in
    if i + 1 < n && byte (i + 1) >= lo && byte (i + 1) <= hi && cont (i + 2)
       && cont (i + 3)
    then 4
    else 0
  end
  else 0

(* A JSON document is UTF-8 by definition (RFC 8259 §8.1), so emitting raw
   bytes ≥ 0x80 that do not form valid sequences would produce output no
   conforming parser (including ours on a strict round trip) accepts. Valid
   multi-byte sequences pass through untouched; each byte that is not part
   of one is replaced by U+FFFD, one replacement character per bogus byte. *)
let replacement = "\xEF\xBF\xBD" (* U+FFFD *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
     | '"' -> Buffer.add_string buf "\\\""; incr i
     | '\\' -> Buffer.add_string buf "\\\\"; incr i
     | '\n' -> Buffer.add_string buf "\\n"; incr i
     | '\r' -> Buffer.add_string buf "\\r"; incr i
     | '\t' -> Buffer.add_string buf "\\t"; incr i
     | '\b' -> Buffer.add_string buf "\\b"; incr i
     | '\012' -> Buffer.add_string buf "\\f"; incr i
     | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c));
         incr i
     | c when Char.code c < 0x80 -> Buffer.add_char buf c; incr i
     | _ -> (
         match utf8_scalar_len s !i with
         | 0 ->
             Buffer.add_string buf replacement;
             incr i
         | len ->
             Buffer.add_substring buf s !i len;
             i := !i + len))
  done;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

let rec add_compact buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool true -> Buffer.add_string buf "true"
  | Value.Bool false -> Buffer.add_string buf "false"
  | Value.Int n -> Buffer.add_string buf (string_of_int n)
  | Value.Float f -> Buffer.add_string buf (Number.print_float f)
  | Value.String s -> add_escaped buf s
  | Value.Array vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add_compact buf x)
        vs;
      Buffer.add_char buf ']'
  | Value.Object fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          add_compact buf x)
        fields;
      Buffer.add_char buf '}'

(* --- sizes without printing ------------------------------------------------

   The exact length of the compact output, walked the way [add_compact]
   and [add_escaped] walk their input, without building it. *)

let escaped_length s =
  let n = String.length s in
  let len = ref 2 and i = ref 0 in
  while !i < n do
    match s.[!i] with
    | '"' | '\\' | '\n' | '\r' | '\t' | '\b' | '\012' ->
        len := !len + 2;
        incr i
    | c when Char.code c < 0x20 ->
        len := !len + 6;
        incr i
    | c when Char.code c < 0x80 ->
        incr len;
        incr i
    | _ -> (
        match utf8_scalar_len s !i with
        | 0 ->
            len := !len + String.length replacement;
            incr i
        | l ->
            len := !len + l;
            i := !i + l)
  done;
  !len

let int_length n =
  if n = min_int then String.length (string_of_int n)
  else
    let rec digits n d = if n < 10 then d else digits (n / 10) (d + 1) in
    if n < 0 then 1 + digits (-n) 1 else digits n 1

(* brackets plus one comma between items: [items] counts each item's
   length plus one *)
let bracketed items = max 2 (1 + items)

let rec length (v : Value.t) =
  match v with
  | Value.Null | Value.Bool true -> 4
  | Value.Bool false -> 5
  | Value.Int n -> int_length n
  | Value.Float f -> String.length (Number.print_float f)
  | Value.String s -> escaped_length s
  | Value.Array vs -> bracketed (List.fold_left (fun n x -> n + length x + 1) 0 vs)
  | Value.Object fields ->
      bracketed
        (List.fold_left (fun n (k, x) -> n + escaped_length k + length x + 2) 0 fields)

let add_pretty ~indent buf v =
  let pad level = Buffer.add_string buf (String.make (level * indent) ' ') in
  let rec go level (v : Value.t) =
    match v with
    | Value.Array [] -> Buffer.add_string buf "[]"
    | Value.Object [] -> Buffer.add_string buf "{}"
    | Value.Array vs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (level + 1);
            go (level + 1) x)
          vs;
        Buffer.add_char buf '\n';
        pad level;
        Buffer.add_char buf ']'
    | Value.Object fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (level + 1);
            add_escaped buf k;
            Buffer.add_string buf ": ";
            go (level + 1) x)
          fields;
        Buffer.add_char buf '\n';
        pad level;
        Buffer.add_char buf '}'
    | scalar -> add_compact buf scalar
  in
  go 0 v

let to_buffer buf v = add_compact buf v

let to_string v =
  let buf = Buffer.create 256 in
  add_compact buf v;
  Buffer.contents buf

let to_string_pretty ?(indent = 2) v =
  let buf = Buffer.create 256 in
  add_pretty ~indent buf v;
  Buffer.contents buf

let to_channel oc v = output_string oc (to_string v)
let pp ppf v = Format.pp_print_string ppf (to_string v)
let pp_pretty ppf v = Format.pp_print_string ppf (to_string_pretty v)

(* Make Value.pp usable without depending on this module. *)
let () = Value.pp_ref := pp
