(* Scenario: analytics over a JSON event stream — the Mison / Fad.js use
   case. The analytics task touches 2 of 24 fields; the structural-index
   projection parser and the speculative lazy decoder avoid materializing
   the other 22.

   Run with:  dune exec examples/event_analytics.exe *)

open Core

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let st = Datagen.rng ~seed:7 in
  let n = 20_000 in
  let docs = Datagen.events st ~fields:24 n in
  let text = Datagen.to_ndjson docs in
  Printf.printf "stream: %d events, %.1f MB\n\n" n
    (float_of_int (String.length text) /. 1e6);

  (* baseline: full tree parse, then extract the two fields *)
  let (full_sum, full_time) =
    time (fun () ->
        match Json.Parser.fold_documents text ~init:0 ~f:(fun acc doc ->
                  match Json.Value.(member "f0" doc, member "f4" doc) with
                  | Some (Json.Value.Int a), Some _ -> acc + a
                  | _ -> acc)
        with
        | Ok sum -> sum
        | Error e -> failwith (Json.Parser.string_of_error e))
  in

  (* Mison-style projection: only f0 and f4 are ever parsed *)
  let (mison_sum, mison_time) =
    time (fun () ->
        match
          Fastjson.Mison.project_ndjson_with_stats
            { Fastjson.Mison.fields = [ "f0"; "f4" ] } text
        with
        | Ok (rows, stats) ->
            let sum =
              List.fold_left
                (fun acc row ->
                  match List.assoc_opt "f0" row with
                  | Some (Json.Value.Int a) -> acc + a
                  | _ -> acc)
                0 rows
            in
            Printf.printf "mison speculation: %d/%d fields found at predicted position\n"
              stats.Fastjson.Mison.speculative_hits
              (2 * stats.Fastjson.Mison.records);
            sum
        | Error m -> failwith m)
  in

  (* Fad.js-style lazy decoding: application code does doc.get "f0" *)
  let (fadjs_sum, fadjs_time) =
    time (fun () ->
        let decoder = Fastjson.Fadjs.create () in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
        in
        let sum =
          List.fold_left
            (fun acc line ->
              match Fastjson.Fadjs.decode decoder line with
              | Ok doc -> (
                  ignore (Fastjson.Fadjs.get doc "f4");
                  match Fastjson.Fadjs.get doc "f0" with
                  | Some (Json.Value.Int a) -> acc + a
                  | _ -> acc)
              | Error m -> failwith m)
            0 lines
        in
        let s = Fastjson.Fadjs.stats decoder in
        Printf.printf "fadjs: %d eager parses, %d skipped values, %d deopts\n\n"
          s.Fastjson.Fadjs.eager_fields s.Fastjson.Fadjs.skipped_fields
          s.Fastjson.Fadjs.deopts;
        sum)
  in

  assert (full_sum = mison_sum && full_sum = fadjs_sum);
  let mb = float_of_int (String.length text) /. 1e6 in
  Printf.printf "full parse : %6.1f ms  (%5.1f MB/s)\n" (full_time *. 1e3) (mb /. full_time);
  Printf.printf "mison      : %6.1f ms  (%5.1f MB/s, %.1fx)\n" (mison_time *. 1e3)
    (mb /. mison_time) (full_time /. mison_time);
  Printf.printf "fadjs      : %6.1f ms  (%5.1f MB/s, %.1fx)\n" (fadjs_time *. 1e3)
    (mb /. fadjs_time) (full_time /. fadjs_time)
