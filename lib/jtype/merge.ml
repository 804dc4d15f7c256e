type equiv = Counting.equiv = Kind | Label

let equiv_to_string = Counting.equiv_to_string

(* [t] as a counting value that [Counting.erase] reads back as [t]: a
   record counts 2, a mandatory field 2, an optional field 1 and every
   other node 1. After fusion a field's count falls short of its record's
   exactly when some fused record lacks the field or has it optional. *)
let rec lift (t : Types.t) : Counting.t =
  match t.Types.node with
  | Types.Bot -> Counting.CBot
  | Types.Null -> Counting.CNull 1
  | Types.Bool -> Counting.CBool 1
  | Types.Int -> Counting.CInt 1
  | Types.Num -> Counting.CNum 1
  | Types.Str -> Counting.CStr 1
  | Types.Any -> Counting.CAny 1
  | Types.Arr elem -> Counting.CArr (1, lift elem)
  | Types.Rec fields ->
      Counting.CRec
        ( 2,
          List.map
            (fun f ->
              { Counting.fname = f.Types.fname;
                occurs = (if f.Types.optional then 1 else 2);
                ftype = lift f.Types.ftype })
            fields )
  | Types.Union ts -> Counting.CUnion (List.map lift ts)

(* Each interned type is added once: k copies would multiply a record's
   count and its fields' counts alike by k, which [erase] cannot see. *)
let merge_all ~equiv ts =
  let acc = Counting.create () and seen = Hashtbl.create 64 in
  List.iter
    (fun t ->
      if not (Hashtbl.mem seen (Types.id t)) then begin
        Hashtbl.add seen (Types.id t) ();
        Counting.add ~equiv acc (lift t)
      end)
    ts;
  Counting.erase (Counting.freeze acc)

let merge ~equiv a b = merge_all ~equiv [ a; b ]
let clear_caches () = ()
