(* Quickstart: parse JSON, infer a type, generate schemas, validate.

   Run with:  dune exec examples/quickstart.exe *)

open Core

let () =
  (* 1. Parse some JSON documents (e.g. an API response log). *)
  let docs =
    List.map Json.Parser.parse_exn
      [ {|{"id": 1, "name": "ada",   "languages": ["ocaml", "ml"]}|};
        {|{"id": 2, "name": "brian", "languages": ["c"], "awards": 3}|};
        {|{"id": 3, "name": "grace", "languages": []}|} ]
  in

  (* 2. Infer a structural type for the collection: record fields that are
     sometimes missing become optional, type conflicts become unions. *)
  let inferred = Pipeline.infer ~name:"Person" docs in
  print_endline "== inferred type (paper syntax) ==";
  print_endline (Jtype.Types.to_string inferred.Pipeline.jtype);

  (* 3. The same type as JSON Schema, TypeScript and Swift. *)
  print_endline "\n== JSON Schema ==";
  print_endline (Json.Printer.to_string_pretty (Lazy.force inferred.Pipeline.json_schema));
  print_endline "\n== TypeScript ==";
  print_endline (Lazy.force inferred.Pipeline.typescript);
  print_endline "\n== Swift ==";
  print_endline (Lazy.force inferred.Pipeline.swift);

  (* 4. Validate new documents against the inferred schema. *)
  let good = Json.Parser.parse_exn {|{"id": 4, "name": "don", "languages": ["tex"]}|} in
  let bad = Json.Parser.parse_exn {|{"id": "five", "languages": "all"}|} in
  let show v =
    match Jsonschema.Validate.validate ~root:(Lazy.force inferred.Pipeline.json_schema) v with
    | Ok () -> Printf.printf "valid:   %s\n" (Json.Printer.to_string v)
    | Error es ->
        Printf.printf "invalid: %s\n" (Json.Printer.to_string v);
        List.iter
          (fun e -> Printf.printf "  - %s\n" (Jsonschema.Validate.string_of_error e))
          es
  in
  print_endline "\n== validation ==";
  show good;
  show bad;

  (* 5. Counting types: how often does each field occur? *)
  print_endline "\n== counting type ==";
  print_endline (Jtype.Counting.to_string inferred.Pipeline.counting)
