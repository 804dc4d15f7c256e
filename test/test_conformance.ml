(* Differential conformance harness: every case in conformance/*.json runs
   against BOTH validation engines — the interpreter ([Validate.validate])
   and the compiled plan ([Compile.run]) — and must produce the expected
   verdict AND identical error lists.
   A divergence fails the build with a readable "file :: group :: test"
   diff naming the case and the differing error pointers. *)

open Jsonschema

let failures = ref 0
let total = ref 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let errors_to_strings = function
  | Ok () -> []
  | Error es -> List.map Validate.string_of_error es

let report file group test msg =
  incr failures;
  Printf.printf "FAIL %s :: %s :: %s\n  %s\n" file group test msg

let print_errs label errs =
  Printf.printf "  %s:\n" label;
  if errs = [] then Printf.printf "    (no errors)\n"
  else List.iter (fun e -> Printf.printf "    %s\n" e) errs

let run_case file group config ~schema ~plan test =
  incr total;
  let name, data, expected =
    match test with
    | Json.Value.Object fields ->
        let get k = List.assoc_opt k fields in
        let name =
          match get "description" with
          | Some (Json.Value.String s) -> s
          | _ -> "?"
        in
        let data = Option.value (get "data") ~default:Json.Value.Null in
        let expected =
          match get "valid" with
          | Some (Json.Value.Bool b) -> b
          | _ -> failwith "test case missing \"valid\""
        in
        (name, data, expected)
    | _ -> failwith "test case is not an object"
  in
  let interp = Validate.validate ~config ~root:schema data in
  let compiled =
    match plan with
    | Ok p -> Compile.run ~config p data
    | Error es -> Error es
  in
  let i_errs = errors_to_strings interp in
  let c_errs = errors_to_strings compiled in
  let verdict = Result.is_ok interp in
  if verdict <> expected then begin
    report file group name
      (Printf.sprintf "expected %s, interpreter said %s"
         (if expected then "valid" else "invalid")
         (if verdict then "valid" else "invalid"));
    print_errs "interpreter errors" i_errs
  end;
  if c_errs <> i_errs then begin
    report file group name "compiled plan diverges from interpreter";
    print_errs "interpreter" i_errs;
    print_errs "compiled" c_errs
  end

let run_group file group =
  match group with
  | Json.Value.Object fields ->
      let get k = List.assoc_opt k fields in
      let desc =
        match get "description" with
        | Some (Json.Value.String s) -> s
        | _ -> "?"
      in
      let schema =
        match get "schema" with
        | Some s -> s
        | None -> failwith (Printf.sprintf "%s :: %s: no schema" file desc)
      in
      let assert_formats =
        match get "formats" with Some (Json.Value.Bool b) -> b | _ -> false
      in
      let config = { Validate.default_config with assert_formats } in
      let plan = Compile.compile schema in
      let tests =
        match get "tests" with
        | Some (Json.Value.Array ts) -> ts
        | _ -> failwith (Printf.sprintf "%s :: %s: no tests" file desc)
      in
      List.iter (run_case file desc config ~schema ~plan) tests
  | _ -> failwith (Printf.sprintf "%s: group is not an object" file)

let run_file dir file =
  let doc = Json.Parser.parse_exn (read_file (Filename.concat dir file)) in
  match doc with
  | Json.Value.Array groups -> List.iter (run_group file) groups
  | _ -> failwith (Printf.sprintf "%s: top level is not an array" file)

let () =
  let dir = Conformance_corpus.dir in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    prerr_endline "conformance: no corpus files found";
    exit 1
  end;
  List.iter (run_file dir) files;
  if !total < 150 then begin
    Printf.printf "conformance: only %d case runs (< 150 cases); corpus too small\n"
      !total;
    exit 1
  end;
  if !failures > 0 then begin
    Printf.printf "conformance: %d failure(s) out of %d case runs\n" !failures
      !total;
    exit 1
  end;
  Printf.printf "conformance: %d case runs across %d files, both engines agree\n"
    !total (List.length files)
