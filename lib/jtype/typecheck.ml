type mismatch = { at : Json.Pointer.t; expected : Types.t; got : Json.Value.t }

let string_of_mismatch { at; expected; got } =
  Printf.sprintf "at %s: expected %s, got %s"
    (match Json.Pointer.to_string at with "" -> "<root>" | s -> s)
    (Types.to_string expected)
    (Json.Printer.to_string got)

exception Mismatch of mismatch

let rec check_at at (v : Json.Value.t) (t : Types.t) =
  let fail () = raise (Mismatch { at; expected = t; got = v }) in
  match (t.Types.node, v) with
  | Types.Any, _ -> ()
  | Types.Bot, _ -> fail ()
  | Types.Null, Json.Value.Null -> ()
  | Types.Bool, Json.Value.Bool _ -> ()
  | Types.Int, Json.Value.Int _ -> ()
  | Types.Num, (Json.Value.Int _ | Json.Value.Float _) -> ()
  | Types.Str, Json.Value.String _ -> ()
  | Types.Arr elem, Json.Value.Array vs ->
      List.iteri
        (fun i x -> check_at (Json.Pointer.append at (Json.Pointer.Index i)) x elem)
        vs
  | Types.Rec fields, Json.Value.Object obj ->
      List.iter
        (fun f ->
          match List.assoc_opt f.Types.fname obj with
          | Some x ->
              check_at (Json.Pointer.append at (Json.Pointer.Key f.Types.fname)) x
                f.Types.ftype
          | None -> if not f.Types.optional then fail ())
        fields;
      (* closed records: no extra fields *)
      List.iter
        (fun (k, _) ->
          if not (List.exists (fun f -> String.equal f.Types.fname k) fields) then
            fail ())
        obj
  | Types.Union ts, _ ->
      if
        not
          (List.exists
             (fun branch ->
               match check_at at v branch with
               | () -> true
               | exception Mismatch _ -> false)
             ts)
      then fail ()
  | (Types.Null | Types.Bool | Types.Int | Types.Num | Types.Str | Types.Arr _
    | Types.Rec _), _ ->
      fail ()

let check v t =
  match check_at [] v t with () -> Ok () | exception Mismatch m -> Error m

let member v t = Result.is_ok (check v t)
