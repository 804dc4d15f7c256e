(* Fixed reference work for the jsontool benchmark, with no input and no
   dependency on the toolkit: a byte scan over an 8 MB buffer (the
   lexer's access pattern), then a heap of small records, strings
   and a hash table that the major GC must mark and sweep — the memory
   profile of a jsontool batch job. The benchmark runs it between timed
   jsontool invocations and scales their times by how long it took, so
   a shared machine whose speed drifts (by up to 2x over minutes) still
   gives comparable numbers. Changing this file changes every
   end-to-end time. *)

let scan buf =
  let depth = ref 0 and strings = ref 0 in
  Bytes.iter
    (function
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | '"' -> incr strings
      | _ -> ())
    buf;
  !depth + !strings

let () =
  let buf = Bytes.init (8 lsl 20) (fun i -> "{\"ab\":[1,2],\"c\":3}\n".[i mod 19]) in
  let h = Hashtbl.create 4096 in
  let records = ref [] in
  for i = 0 to 120_000 do
    let k = string_of_int (i * 7919) in
    if i mod 8 = 0 then Hashtbl.replace h k i;
    records := (i * 31 mod 1000, k, [ i; i + 1 ]) :: !records
  done;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !records in
  let total = List.fold_left (fun n (a, _, l) -> n + a + List.length l) 0 sorted in
  if scan buf + total + Hashtbl.length h < 0 then exit 1
