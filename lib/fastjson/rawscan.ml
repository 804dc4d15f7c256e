let skip_ws s i =
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with ' ' | '\t' | '\n' | '\r' -> go (i + 1) | _ -> i
    else i
  in
  go i

let skip_string s i =
  let n = String.length s in
  if i >= n || s.[i] <> '"' then Error "expected a string"
  else
    let rec go i =
      if i >= n then Error "unterminated string"
      else
        match s.[i] with
        | '"' -> Ok (i + 1)
        | '\\' -> if i + 1 < n then go (i + 2) else Error "truncated escape"
        | _ -> go (i + 1)
    in
    go (i + 1)

let skip_literal s i =
  (* numbers, true/false/null: scan to a delimiter *)
  let n = String.length s in
  let rec go i =
    if i >= n then i
    else
      match s.[i] with
      | ',' | '}' | ']' | ' ' | '\t' | '\n' | '\r' -> i
      | _ -> go (i + 1)
  in
  Ok (go i)

let skip_container s i =
  let n = String.length s in
  let rec go i depth in_string =
    if i >= n then Error "unbalanced brackets"
    else if in_string then
      match s.[i] with
      | '\\' -> if i + 1 < n then go (i + 2) depth true else Error "truncated escape"
      | '"' -> go (i + 1) depth false
      | _ -> go (i + 1) depth true
    else
      match s.[i] with
      | '"' -> go (i + 1) depth true
      | '{' | '[' -> go (i + 1) (depth + 1) false
      | '}' | ']' -> if depth = 1 then Ok (i + 1) else go (i + 1) (depth - 1) false
      | _ -> go (i + 1) depth false
  in
  go i 0 false

let skip_value s i =
  let n = String.length s in
  if i >= n then Error "unexpected end of input"
  else
    match s.[i] with
    | '"' -> skip_string s i
    | '{' | '[' -> skip_container s i
    | _ -> skip_literal s i

let raw_key_at s ~colon =
  (* walk back over whitespace, expect closing quote, then scan to the
     opening quote (a quote preceded by an even number of backslashes) *)
  let rec back_ws i =
    if i >= 0 && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') then
      back_ws (i - 1)
    else i
  in
  let close = back_ws (colon - 1) in
  if close < 0 || s.[close] <> '"' then Error "no field name before colon"
  else
    let rec find_open i =
      if i < 0 then Error "unterminated field name"
      else if s.[i] = '"' then begin
        (* count preceding backslashes *)
        let rec bs j acc = if j >= 0 && s.[j] = '\\' then bs (j - 1) (acc + 1) else acc in
        if bs (i - 1) 0 mod 2 = 0 then Ok i else find_open (i - 1)
      end
      else find_open (i - 1)
    in
    match find_open (close - 1) with
    | Ok open_q -> Ok (String.sub s (open_q + 1) (close - open_q - 1), open_q)
    | Error _ as e -> e
