(* Crash-safe checkpoint journal for supervised sharded jobs.

   Append-only NDJSON: one header line naming the job kind and a
   fingerprint of the input, then one line per *completed* shard (poisoned
   shards are deliberately not journaled — a resumed run must retry them,
   not inherit their quarantine). Each entry line is flushed as a unit, so
   a crash can only lose or tear the final line; the loader tolerates a
   torn tail by dropping everything from the first undecodable line on.
   Entries round-trip exactly (Resilient.ingest_of_json is the inverse of
   ingest_to_json, and the JSON printer emits shortest-round-trip floats),
   which is what makes a resumed run byte-identical to an uninterrupted
   one. *)

type entry = {
  e_off : int;
  e_len : int;
  e_line : int;
  e_ingest : Resilient.ingest;
  e_payload : Json.Value.t;
}

(* [buf] is reused across entry emissions: journaling is a per-shard hot
   path under the supervisor, and rendering into a retained buffer avoids
   allocating an intermediate string per entry *)
type journal = { oc : out_channel; buf : Buffer.t }

let format_tag = "jsontool-checkpoint/1"

let fingerprint = Json.Fnv.hex

let header_json ~job ~engine ~input_fp =
  Json.Value.Object
    [ ("format", Json.Value.String format_tag);
      ("job", Json.Value.String job);
      ("engine", Json.Value.String engine);
      ("input_fp", Json.Value.String input_fp) ]

let entry_to_json e =
  Json.Value.Object
    [ ("off", Json.Value.Int e.e_off);
      ("len", Json.Value.Int e.e_len);
      ("line", Json.Value.Int e.e_line);
      ("ingest", Resilient.ingest_to_json e.e_ingest);
      ("payload", e.e_payload) ]

let ( let* ) = Result.bind

let member name = function
  | Json.Value.Object fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "checkpoint: missing field %S" name))
  | _ -> Error "checkpoint: expected an object"

let int_field name j =
  let* v = member name j in
  match v with
  | Json.Value.Int i -> Ok i
  | _ -> Error (Printf.sprintf "checkpoint: field %S must be an integer" name)

let string_field name j =
  let* v = member name j in
  match v with
  | Json.Value.String s -> Ok s
  | _ -> Error (Printf.sprintf "checkpoint: field %S must be a string" name)

let entry_of_json j =
  let* e_off = int_field "off" j in
  let* e_len = int_field "len" j in
  let* e_line = int_field "line" j in
  let* ingest_json = member "ingest" j in
  let* e_ingest = Resilient.ingest_of_json ingest_json in
  let* e_payload = member "payload" j in
  Ok { e_off; e_len; e_line; e_ingest; e_payload }

let check_header ~job ~engine ~input_fp j =
  let* format = string_field "format" j in
  let* file_job = string_field "job" j in
  let* file_engine = string_field "engine" j in
  let* file_fp = string_field "input_fp" j in
  if format <> format_tag then
    Error (Printf.sprintf "checkpoint: unknown format %S" format)
  else if file_job <> job then
    Error
      (Printf.sprintf "checkpoint: journal is for job %S, this run is %S"
         file_job job)
  else if file_engine <> engine then
    (* shard payloads are engine-independent by the byte-identity contract,
       but a mixed journal would silently launder one engine's results as
       the other's — refuse, like any other provenance mismatch *)
    Error
      (Printf.sprintf
         "checkpoint: engine mismatch (journal %s, this run %s) — refusing \
          to resume across engines"
         file_engine engine)
  else if file_fp <> input_fp then
    Error
      (Printf.sprintf
         "checkpoint: input fingerprint mismatch (journal %s, input %s) — \
          refusing to resume against different data"
         file_fp input_fp)
  else Ok ()

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* decode entries until the first undecodable line — the torn tail a crash
   mid-flush leaves behind; everything after it is recomputed, never
   trusted *)
let decode_entries lines =
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        if String.trim line = "" then List.rev acc
        else
          match Json.Parser.parse line with
          | Error _ -> List.rev acc
          | Ok j -> (
              match entry_of_json j with
              | Error _ -> List.rev acc
              | Ok e -> go (e :: acc) rest))
  in
  go [] lines

let emit ~buf oc json =
  Buffer.clear buf;
  Json.Printer.to_buffer buf json;
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf;
  flush oc

let start ~path ~resume ~job ~engine ~input =
  let input_fp = fingerprint input in
  let buf = Buffer.create 4096 in
  (* (re)write the journal: the header, then [entries] *)
  let write entries =
    let oc = open_out_bin path in
    match
      emit ~buf oc (header_json ~job ~engine ~input_fp);
      List.iter (fun e -> emit ~buf oc (entry_to_json e)) entries
    with
    | () -> Ok ({ oc; buf }, entries)
    | exception (Sys_error _ as exn) ->
        close_out_noerr oc;
        raise exn
  in
  try
    if not (resume && Sys.file_exists path) then write []
    else
      match read_lines path with
      | [] -> write []
      | header_line :: entry_lines -> (
          match Json.Parser.parse header_line with
          | Error _ -> Error "checkpoint: unreadable journal header"
          | Ok header ->
              let* () = check_header ~job ~engine ~input_fp header in
              (* rewrite rather than append: scrubs any torn tail so the
                 journal on disk is exactly the entries we trusted *)
              write (decode_entries entry_lines))
  with Sys_error reason -> Error ("checkpoint: cannot open journal " ^ reason)

let record j e = emit ~buf:j.buf j.oc (entry_to_json e)

let close j = close_out_noerr j.oc
