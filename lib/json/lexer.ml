type position = { offset : int; line : int; column : int }

exception Lex_error of position * string
exception Limit_error of position * string

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
  mutable buf : Buffer.t option; (* scratch for string unescaping, created on
                                    the first escaped string materialized *)
  max_string_bytes : int option;
  (* Latched by [skim] so hot loops can read token metadata without a
     position record or tuple being allocated per token. *)
  mutable tok_start : int; (* byte offset where the last skimmed token starts *)
  mutable str_start : int; (* contents start (past the quote) of the last string *)
  mutable str_stop : int; (* offset of that string's closing quote *)
  mutable str_escaped : bool; (* the span contains backslash escapes *)
}

let create ?(pos = 0) ?max_string_bytes src =
  { src; pos; line = 1; bol = pos; buf = None;
    max_string_bytes; tok_start = pos; str_start = 0; str_stop = 0;
    str_escaped = false }

let get_buf lx =
  match lx.buf with
  | Some b -> b
  | None ->
      let b = Buffer.create 64 in
      lx.buf <- Some b;
      b

let position_at lx off = { offset = off; line = lx.line; column = off - lx.bol + 1 }
let position lx = position_at lx lx.pos
let offset lx = lx.pos

let error lx off msg = raise (Lex_error (position_at lx off, msg))

let is_digit c = c >= '0' && c <= '9'

(* The scanners below are written as loops over local refs rather than local
   recursive functions: without flambda, a local function that captures
   [lx] is a closure allocated on every call, which on a token-per-call
   path is most of the lexer's allocation. *)

let skip_ws lx =
  let src = lx.src in
  let n = String.length src in
  let p = ref lx.pos in
  let more = ref true in
  while !more && !p < n do
    match String.unsafe_get src !p with
    | ' ' | '\t' | '\r' -> incr p
    | '\n' ->
        incr p;
        lx.line <- lx.line + 1;
        lx.bol <- !p
    | _ -> more := false
  done;
  lx.pos <- !p

let expect_keyword lx word =
  let n = String.length word in
  let src = lx.src in
  let start = lx.pos in
  let fits = start + n <= String.length src in
  let i = ref 0 in
  if fits then
    while !i < n && String.unsafe_get src (start + !i) = String.unsafe_get word !i do
      incr i
    done;
  if fits && !i = n then lx.pos <- start + n
  else error lx start (Printf.sprintf "expected %s" word)

(* Append a Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex_value lx off c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> error lx off "invalid hex digit in \\u escape"

let read_hex4 lx =
  let n = String.length lx.src in
  if lx.pos + 4 > n then error lx lx.pos "truncated \\u escape";
  let v =
    (hex_value lx lx.pos lx.src.[lx.pos] lsl 12)
    lor (hex_value lx (lx.pos + 1) lx.src.[lx.pos + 1] lsl 8)
    lor (hex_value lx (lx.pos + 2) lx.src.[lx.pos + 2] lsl 4)
    lor hex_value lx (lx.pos + 3) lx.src.[lx.pos + 3]
  in
  lx.pos <- lx.pos + 4;
  v

(* Validate and skip one string literal without materializing its unescaped
   contents: the one place a string literal is checked. The budget is
   tested at the top of every iteration against the *decoded* length
   accumulated so far, so a budget kill wins over any later syntax error.
   Returns the decoded (unescaped) byte length. *)
let utf8_width u = if u < 0x80 then 1 else if u < 0x800 then 2 else 3

let skim_string lx =
  let src = lx.src in
  let n = String.length src in
  let start = lx.pos in
  lx.pos <- lx.pos + 1; (* opening quote *)
  lx.str_start <- lx.pos;
  lx.str_escaped <- false;
  let limit = match lx.max_string_bytes with Some l -> l | None -> max_int in
  let len = ref 0 in
  let closed = ref false in
  while not !closed do
    if !len > limit then
      raise
        (Limit_error
           ( position_at lx start,
             Printf.sprintf "string literal exceeds %d bytes" limit ));
    if lx.pos >= n then error lx start "unterminated string";
    match String.unsafe_get src lx.pos with
    | '"' ->
        lx.pos <- lx.pos + 1;
        closed := true
    | '\\' -> (
        lx.str_escaped <- true;
        lx.pos <- lx.pos + 1;
        if lx.pos >= n then error lx start "unterminated string";
        match String.unsafe_get src lx.pos with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
            incr len;
            lx.pos <- lx.pos + 1
        | 'u' ->
            lx.pos <- lx.pos + 1;
            let u = read_hex4 lx in
            if u >= 0xD800 && u <= 0xDBFF then begin
              if lx.pos + 2 <= n && src.[lx.pos] = '\\' && src.[lx.pos + 1] = 'u'
              then begin
                lx.pos <- lx.pos + 2;
                let lo = read_hex4 lx in
                if lo >= 0xDC00 && lo <= 0xDFFF then len := !len + 4
                else error lx lx.pos "invalid low surrogate"
              end
              else error lx lx.pos "unpaired high surrogate"
            end
            else if u >= 0xDC00 && u <= 0xDFFF then
              error lx lx.pos "unpaired low surrogate"
            else len := !len + utf8_width u
        | c -> error lx lx.pos (Printf.sprintf "invalid escape '\\%c'" c))
    | c when Char.code c < 0x20 ->
        error lx lx.pos "unescaped control character in string"
    | _ ->
        (* Run of plain bytes: consume the whole stretch in one tight
           loop. The budget is re-tested at the top of the outer loop
           before the stopping byte is examined, so a budget kill still
           wins over any later syntax error, exactly as in the per-byte
           loop. *)
        let p = ref (lx.pos + 1) in
        while
          !p < n
          && (let c = String.unsafe_get src !p in
              c <> '"' && c <> '\\' && Char.code c >= 0x20)
        do
          incr p
        done;
        len := !len + (!p - lx.pos);
        lx.pos <- !p
  done;
  lx.str_stop <- lx.pos - 1;
  !len

(* Largest digit count that can never overflow a 63-bit [int]. *)
let max_safe_int_digits = 18

(* The value of the number literal spanning [start, stop). A plain
   in-range integer literal is evaluated in place, without the literal's
   copy; anything else (floats, oversized or malformed literals) goes
   through [Number.parse] on the substring, so values and error messages
   are [Number.parse]'s. *)
let number_at lx start stop =
  let src = lx.src in
  let neg = String.unsafe_get src start = '-' in
  let first = if neg then start + 1 else start in
  let v = ref 0 and i = ref first in
  while !i < stop && is_digit (String.unsafe_get src !i) do
    v := (!v * 10) + (Char.code (String.unsafe_get src !i) - Char.code '0');
    incr i
  done;
  let ndigits = !i - first in
  if !i = stop && ndigits > 0 && ndigits <= max_safe_int_digits
     && (String.unsafe_get src first <> '0' || ndigits = 1)
  then Number.Int_lit (if neg then - !v else !v)
  else
    match Number.parse (String.sub src start (stop - start)) with
    | Ok parsed -> parsed
    | Error msg -> error lx start msg

(* --- Allocation-free skim tokens ----------------------------------------

   [skim] is the one token source, of the tree parser and of every
   streaming walk: every token is an immediate constant, the start offset
   is latched in [tok_start] (a position record is built only on demand
   via [tok_pos]), string contents stay in the source (recoverable through
   [last_string_start] / [string_of_last]), and numbers are classified
   int-vs-float without materializing a value (recoverable through
   [number_of_last]). Every malformed-input error and the string budget
   are raised by [skim] itself, so the accessors never fail. *)

type skim_tok =
  | S_lbrace
  | S_rbrace
  | S_lbracket
  | S_rbracket
  | S_colon
  | S_comma
  | S_true
  | S_false
  | S_null
  | S_int
  | S_float
  | S_string
  | S_eof

let skim_name = function
  | S_lbrace -> "'{'"
  | S_rbrace -> "'}'"
  | S_lbracket -> "'['"
  | S_rbracket -> "']'"
  | S_colon -> "':'"
  | S_comma -> "','"
  | S_true -> "'true'"
  | S_false -> "'false'"
  | S_null -> "'null'"
  | S_int | S_float -> "number"
  | S_string -> "string"
  | S_eof -> "end of input"

(* Classify a number literal in place. The well-formed cases whose magnitude
   provably fits the double range return without allocating; everything
   else — oversized integers, huge exponents, malformed literals — falls
   back to [Number.parse] on the substring so classification and error
   messages match [number_at] exactly (overflow to infinity is a parse
   error, so it must not be classified blindly as a float). *)
let number_kind_fallback lx start =
  let literal = String.sub lx.src start (lx.pos - start) in
  match Number.parse literal with
  | Ok (Number.Int_lit _) -> S_int
  | Ok (Number.Float_lit _) -> S_float
  | Error msg -> error lx start msg

let skim_number_kind lx =
  let n = String.length lx.src in
  let start = lx.pos in
  if lx.pos < n && lx.src.[lx.pos] = '-' then lx.pos <- lx.pos + 1;
  let digits_start = lx.pos in
  while lx.pos < n && is_digit (String.unsafe_get lx.src lx.pos) do
    lx.pos <- lx.pos + 1
  done;
  let ndigits = lx.pos - digits_start in
  let has_frac = lx.pos < n && lx.src.[lx.pos] = '.' in
  let frac_digits = ref 0 in
  if has_frac then begin
    lx.pos <- lx.pos + 1;
    while lx.pos < n && is_digit (String.unsafe_get lx.src lx.pos) do
      incr frac_digits;
      lx.pos <- lx.pos + 1
    done
  end;
  let has_exp = lx.pos < n && (lx.src.[lx.pos] = 'e' || lx.src.[lx.pos] = 'E') in
  let exp_neg = ref false and exp_digits = ref 0 and exp_val = ref 0 in
  if has_exp then begin
    lx.pos <- lx.pos + 1;
    if lx.pos < n && (lx.src.[lx.pos] = '+' || lx.src.[lx.pos] = '-') then begin
      exp_neg := lx.src.[lx.pos] = '-';
      lx.pos <- lx.pos + 1
    end;
    while lx.pos < n && is_digit (String.unsafe_get lx.src lx.pos) do
      if !exp_digits < 5 then
        exp_val := (!exp_val * 10) + (Char.code lx.src.[lx.pos] - Char.code '0');
      incr exp_digits;
      lx.pos <- lx.pos + 1
    done
  end;
  let well_formed =
    ndigits > 0
    && (lx.src.[digits_start] <> '0' || ndigits = 1)
    && ((not has_frac) || !frac_digits > 0)
    && ((not has_exp) || !exp_digits > 0)
  in
  if not well_formed then number_kind_fallback lx start
  else if (not has_frac) && not has_exp then
    if ndigits <= max_safe_int_digits then S_int
    else number_kind_fallback lx start
  else begin
    (* magnitude < 10^(integer digits + signed exponent); safe when that
       bound stays below 10^308 <= DBL_MAX. *)
    let safe =
      if not has_exp then ndigits <= 308
      else if !exp_digits > 5 then false
      else ndigits + (if !exp_neg then - !exp_val else !exp_val) <= 308
    in
    if safe then S_float else number_kind_fallback lx start
  end

let skim lx =
  skip_ws lx;
  let start = lx.pos in
  lx.tok_start <- start;
  if start >= String.length lx.src then S_eof
  else
    match String.unsafe_get lx.src start with
    | '{' -> lx.pos <- start + 1; S_lbrace
    | '}' -> lx.pos <- start + 1; S_rbrace
    | '[' -> lx.pos <- start + 1; S_lbracket
    | ']' -> lx.pos <- start + 1; S_rbracket
    | ':' -> lx.pos <- start + 1; S_colon
    | ',' -> lx.pos <- start + 1; S_comma
    | 't' -> expect_keyword lx "true"; S_true
    | 'f' -> expect_keyword lx "false"; S_false
    | 'n' -> expect_keyword lx "null"; S_null
    | '"' ->
        let _len = skim_string lx in
        S_string
    | '-' | '0' .. '9' -> skim_number_kind lx
    | c -> error lx start (Printf.sprintf "unexpected character %C" c)

(* A member key the caller expects, compared in place. [name] is plain (no
   '"', no '\\', no byte below 0x20), so its raw spelling between quotes is
   exactly what [skim_string] would scan as a string with those contents:
   a match leaves the lexer where [skim] would have left it, and a colon
   right after the closing quote is the token [skim] would return next. A
   key over [max_string_bytes] is not matched, so the skim that follows
   raises the canonical error. On a mismatch only whitespace is consumed. *)
type key_match = No_key | Key | Key_colon

let skim_key lx name =
  skip_ws lx;
  let src = lx.src and p = lx.pos in
  let n = String.length name in
  let close = p + n + 1 in
  if close < String.length src
     && String.unsafe_get src p = '"'
     && String.unsafe_get src close = '"'
     && (match lx.max_string_bytes with Some limit -> n <= limit | None -> true)
     &&
     let i = ref 0 in
     while !i < n && String.unsafe_get src (p + 1 + !i) = String.unsafe_get name !i do
       incr i
     done;
     !i = n
  then begin
    lx.str_start <- p + 1;
    lx.str_stop <- close;
    lx.str_escaped <- false;
    if close + 1 < String.length src && String.unsafe_get src (close + 1) = ':' then begin
      lx.tok_start <- close + 1;
      lx.pos <- close + 2;
      Key_colon
    end
    else begin
      lx.tok_start <- p;
      lx.pos <- close + 1;
      Key
    end
  end
  else No_key

let tok_start lx = lx.tok_start

(* No token contains a raw newline (strings reject unescaped control
   characters), so line/bol have not moved since the token started and the
   position can be reconstructed lazily. *)
let tok_pos lx = position_at lx lx.tok_start

let last_string_start lx = lx.str_start
let last_string_stop lx = lx.str_stop
let last_string_escaped lx = lx.str_escaped

(* The contents of a string literal [skim] has already checked, decoded
   from its span: escapes are well formed and surrogates paired, so there
   is nothing left to reject. *)
let hex_at src i =
  let d c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> Char.code c - Char.code 'A' + 10
  in
  (d src.[i] lsl 12) lor (d src.[i + 1] lsl 8) lor (d src.[i + 2] lsl 4) lor d src.[i + 3]

let unescape lx =
  let src = lx.src and stop = lx.str_stop in
  let buf = get_buf lx in
  Buffer.clear buf;
  let i = ref lx.str_start in
  while !i < stop do
    (match src.[!i] with
     | '\\' -> (
         incr i;
         match src.[!i] with
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             let u = hex_at src (!i + 1) in
             i := !i + 4;
             if u >= 0xD800 && u <= 0xDBFF then begin
               let lo = hex_at src (!i + 3) in
               i := !i + 6;
               add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
             end
             else add_utf8 buf u
         | c -> Buffer.add_char buf c (* '"', '\\' or '/' *))
     | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let string_of_last lx =
  if not lx.str_escaped then
    String.sub lx.src lx.str_start (lx.str_stop - lx.str_start)
  else unescape lx

(* [skim] left [pos] just past the number it classified *)
let number_of_last lx = number_at lx lx.tok_start lx.pos

let source lx = lx.src
