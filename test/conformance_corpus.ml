(* The conformance corpus lives in test/conformance. [dune runtest] runs the
   suites from test/, [dune exec test/<suite>.exe] from the repository
   root; [dir] finds the corpus from either. *)
let dir =
  if Sys.file_exists "conformance" then "conformance"
  else Filename.concat "test" "conformance"
