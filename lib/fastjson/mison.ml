type projection = { fields : string list }

type stats = {
  records : int;
  speculative_hits : int;
  fallback_scans : int;
  full_parse_fallbacks : int;
}

type t = {
  wanted : (string, unit) Hashtbl.t;
  depth : int; (* deepest projected path *)
  predicted : (string, int) Hashtbl.t; (* field -> colon ordinal *)
  tele : Telemetry.sink;
  mutable touched : int; (* bytes materialized by the last parse_record *)
  mutable last_colons : int; (* level-1 colons seen by the last parse_record *)
  mutable records : int;
  mutable speculative_hits : int;
  mutable fallback_scans : int;
  mutable full_parse_fallbacks : int;
}

let create ?(telemetry = Telemetry.nop) (p : projection) =
  let wanted = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace wanted f ()) p.fields;
  let depth =
    List.fold_left
      (fun d f -> max d (List.length (String.split_on_char '.' f)))
      1 p.fields
  in
  { wanted;
    depth;
    predicted = Hashtbl.create 8;
    tele = telemetry;
    touched = 0;
    last_colons = 0;
    records = 0;
    speculative_hits = 0;
    fallback_scans = 0;
    full_parse_fallbacks = 0 }

let stats t =
  { records = t.records;
    speculative_hits = t.speculative_hits;
    fallback_scans = t.fallback_scans;
    full_parse_fallbacks = t.full_parse_fallbacks }

(* returns the value and the bytes consumed parsing it, for the
   pruned-vs-materialized accounting *)
let parse_value_at src pos =
  let pos = Rawscan.skip_ws src pos in
  match Json.Parser.parse_substring src ~pos with
  | Ok (v, stop) -> Ok (v, stop - pos)
  | Error e -> Error (Json.Parser.string_of_error e)

(* name of the field owning the colon at offset c *)
let key_of src c = Rawscan.raw_key_at src ~colon:c

(* Locate a dotted path inside [lo,hi) using colons of increasing level;
   returns the byte offset of the value, never parsing enclosing objects.
   Falls back to None when the path is absent (or deeper than the index). *)
let rec locate idx ~level ~lo ~hi segments =
  let src = Structural_index.source idx in
  match segments with
  | [] -> None
  | seg :: rest ->
      let colons = Structural_index.colons idx ~level ~lo ~hi in
      let rec scan = function
        | [] -> None
        | c :: more -> (
            match key_of src c with
            | Ok (name, _) when String.equal name seg -> (
                let value_start = Rawscan.skip_ws src (c + 1) in
                match rest with
                | [] -> Some value_start
                | _ -> (
                    match Rawscan.skip_value src value_start with
                    | Ok value_end ->
                        if level + 1 <= Structural_index.max_level idx then
                          locate idx ~level:(level + 1) ~lo:value_start
                            ~hi:value_end rest
                        else None
                    | Error _ -> None))
            | _ -> scan more)
      in
      scan colons

let parse_record t idx ~lo ~hi =
  let src = Structural_index.source idx in
  (* pruned-vs-materialized accounting: [touched] sums the byte spans this
     record actually handed to the full parser; everything else in [lo,hi)
     was pruned (skipped by the colon index) *)
  t.touched <- 0;
  (* dotted paths go through the leveled locator; plain names through the
     speculative ordinal machinery below *)
  let nested =
    Hashtbl.fold
      (fun f () acc -> if String.contains f '.' then f :: acc else acc)
      t.wanted []
  in
  let nested_results =
    List.filter_map
      (fun path ->
        let segments = String.split_on_char '.' path in
        match locate idx ~level:1 ~lo ~hi segments with
        | Some value_pos -> (
            match parse_value_at src value_pos with
            | Ok (v, used) ->
                t.touched <- t.touched + used;
                Some (path, v)
            | Error _ -> None)
        | None -> None)
      nested
  in
  let colon_list = Structural_index.colons idx ~level:1 ~lo ~hi in
  let colon_arr = Array.of_list colon_list in
  let n_colons = Array.length colon_arr in
  t.last_colons <- n_colons;
  let n_wanted = Hashtbl.length t.wanted - List.length nested in
  t.records <- t.records + 1;
  let results = ref [] in
  let found = Hashtbl.create 8 in
  let exception Fail of string in
  let take field c =
    match parse_value_at src (c + 1) with
    | Ok (v, used) ->
        t.touched <- t.touched + used;
        Hashtbl.replace found field ();
        results := (field, v) :: !results
    | Error msg -> raise (Fail msg)
  in
  match
    (* speculative probe: for each wanted field, test its predicted colon *)
    Hashtbl.iter
      (fun field () ->
        if String.contains field '.' then ()
        else
        match Hashtbl.find_opt t.predicted field with
        | Some ord when ord < n_colons -> (
            let c = colon_arr.(ord) in
            match key_of src c with
            | Ok (name, _) when String.equal name field ->
                t.speculative_hits <- t.speculative_hits + 1;
                take field c
            | _ -> ())
        | _ -> ())
      t.wanted;
    (* fallback: scan remaining colons for fields not yet found *)
    if Hashtbl.length found < n_wanted then begin
      t.fallback_scans <- t.fallback_scans + 1;
      let rec scan ord =
        if ord < n_colons && Hashtbl.length found < n_wanted then begin
          let c = colon_arr.(ord) in
          (match key_of src c with
           | Ok (name, _) when Hashtbl.mem t.wanted name && not (Hashtbl.mem found name) ->
               Hashtbl.replace t.predicted name ord;
               take name c
           | _ -> ());
          scan (ord + 1)
        end
      in
      scan 0
    end
  with
  | () -> Ok (nested_results @ List.rev !results)
  | exception Fail msg -> Error msg

(* fast path without accounting emission: [parse_line] decides how the
   record is finally charged (fast projection vs full-parse rescue) *)
let parse_string_raw t src =
  let idx =
    Telemetry.span t.tele "mison.index_build" (fun () ->
        Structural_index.build ~max_level:t.depth src)
  in
  parse_record t idx ~lo:0 ~hi:(String.length src)

let records_c = Telemetry.counter "mison.records"
let input_bytes_c = Telemetry.counter "mison.input_bytes"
let bytes_materialized_c = Telemetry.counter "mison.bytes_materialized"
let bytes_pruned_c = Telemetry.counter "mison.bytes_pruned"
let fields_materialized_c = Telemetry.counter "mison.fields_materialized"
let fields_pruned_c = Telemetry.counter "mison.fields_pruned"

(* Emit one record's byte accounting. [materialized] is clamped into
   [0, input_bytes] so the invariant [bytes_pruned + bytes_materialized <=
   mison.input_bytes] holds even for overlapping projections (a dotted path
   inside another projected field parses the same bytes twice). *)
let emit_record t ~input_bytes ~materialized =
  if Telemetry.is_recording t.tele then begin
    let materialized = min (max 0 materialized) input_bytes in
    Telemetry.add t.tele records_c 1;
    Telemetry.add t.tele input_bytes_c input_bytes;
    Telemetry.add t.tele bytes_materialized_c materialized;
    Telemetry.add t.tele bytes_pruned_c (input_bytes - materialized)
  end

let emit_fields t ~n_found ~n_colons =
  if Telemetry.is_recording t.tele then begin
    Telemetry.add t.tele fields_materialized_c n_found;
    Telemetry.add t.tele fields_pruned_c (max 0 (n_colons - n_found))
  end

let parse_string t src =
  let r = parse_string_raw t src in
  (match r with
   | Ok fields ->
       emit_record t ~input_bytes:(String.length src) ~materialized:t.touched;
       emit_fields t ~n_found:(List.length fields) ~n_colons:t.last_colons
   | Error _ -> ());
  r

(* Degradation path: project the wanted fields out of a fully-parsed tree.
   Used when the structural-index fast path fails (or cannot be trusted) on
   one record, so a single bad record degrades instead of erroring the
   batch. *)
let project_of_tree t v =
  let lookup_path v segments =
    let rec go v = function
      | [] -> Some v
      | seg :: rest -> (
          match v with
          | Json.Value.Object fields -> (
              match List.assoc_opt seg fields with
              | Some x -> go x rest
              | None -> None)
          | _ -> None)
    in
    go v segments
  in
  let nested, plain =
    Hashtbl.fold
      (fun f () (n, p) ->
        if String.contains f '.' then (f :: n, p) else (n, f :: p))
      t.wanted ([], [])
  in
  let nested_results =
    List.filter_map
      (fun path ->
        match lookup_path v (String.split_on_char '.' path) with
        | Some x -> Some (path, x)
        | None -> None)
      nested
  in
  let plain_results =
    match v with
    | Json.Value.Object fields -> List.filter (fun (k, _) -> List.mem k plain) fields
    | _ -> []
  in
  nested_results @ plain_results

let parse_line ?options t src =
  let fast = parse_string_raw t src in
  (* [parse_record] resets [t.touched]; capture it before any fallback full
     parse so the fast-path accounting survives the rescue attempt *)
  let fast_touched = t.touched and fast_colons = t.last_colons in
  let emit_fast fields =
    emit_record t ~input_bytes:(String.length src) ~materialized:fast_touched;
    emit_fields t ~n_found:(List.length fields) ~n_colons:fast_colons
  in
  let n_wanted = Hashtbl.length t.wanted in
  let trustworthy =
    (* A record containing backslashes may carry escaped field names, which
       the raw colon scanner compares in their escaped form and therefore
       misses; only a full parse can decide. Complete projections are safe
       either way. *)
    match fast with
    | Ok fields -> List.length fields = n_wanted || not (String.contains src '\\')
    | Error _ -> false
  in
  if trustworthy then begin
    (match fast with Ok fields -> emit_fast fields | Error _ -> ());
    fast
  end
  else
    match Json.Parser.parse ?options ~telemetry:t.tele src with
    | Ok v ->
        t.full_parse_fallbacks <- t.full_parse_fallbacks + 1;
        Telemetry.count t.tele "mison.full_parse_fallbacks" 1;
        let fields = project_of_tree t v in
        (* the rescue materializes the whole record: nothing was pruned *)
        emit_record t ~input_bytes:(String.length src)
          ~materialized:(String.length src);
        emit_fields t ~n_found:(List.length fields)
          ~n_colons:(List.length fields);
        Ok fields
    | Error e -> (
        match fast with
        | Ok fields ->
            (* the raw scan succeeded and only skipped over whatever the
               full parser rejects — keep the fast-path projection *)
            emit_fast fields;
            fast
        | Error _ ->
            Telemetry.count t.tele "mison.errors" 1;
            Error (Json.Parser.string_of_error e))

let project_ndjson_with_stats ?telemetry p text =
  let t = create ?telemetry p in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc, stats t)
    | line :: rest -> (
        match parse_line t line with
        | Ok fields -> go (fields :: acc) rest
        | Error _ as e -> (match e with Error msg -> Error msg | _ -> assert false))
  in
  go [] lines

let project_ndjson ?telemetry p text =
  match project_ndjson_with_stats ?telemetry p text with
  | Ok (rows, _) -> Ok rows
  | Error _ as e -> e
