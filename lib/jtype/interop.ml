let rec to_schema (t : Types.t) : Jsonschema.Schema.t =
  let open Jsonschema.Schema in
  match t.Types.node with
  | Types.Any -> Bool_schema true
  | Types.Bot -> Bool_schema false
  | Types.Null -> Schema { empty with types = Some [ `Null ] }
  | Types.Bool -> Schema { empty with types = Some [ `Boolean ] }
  | Types.Int -> Schema { empty with types = Some [ `Integer ] }
  | Types.Num -> Schema { empty with types = Some [ `Number ] }
  | Types.Str -> Schema { empty with types = Some [ `String ] }
  | Types.Arr elem ->
      Schema
        { empty with
          types = Some [ `Array ];
          items = (match elem.Types.node with Types.Bot -> None | _ -> Some (Items_one (to_schema elem)));
        }
  | Types.Rec fields ->
      Schema
        { empty with
          types = Some [ `Object ];
          properties =
            List.map (fun f -> (f.Types.fname, to_schema f.Types.ftype)) fields;
          required =
            List.filter_map
              (fun f -> if f.Types.optional then None else Some f.Types.fname)
              fields;
          additional_properties = Some (Bool_schema false);
        }
  | Types.Union ts ->
      Schema { empty with any_of = List.map to_schema ts }

let to_schema_json t = Jsonschema.Print.to_json (to_schema t)

(* A node of the fragment carries no keyword besides the ones [to_schema]
   emits and the ones that never affect validation (annotations, and
   [then]/[else] without [if]). Every field is named, so a keyword added
   to [Schema.node] must be placed on one side or the other here. *)
let fragment_keywords_only : Jsonschema.Schema.node -> bool = function
  | { enum = None; const = None; multiple_of = None; maximum = None;
      exclusive_maximum = None; minimum = None; exclusive_minimum = None;
      min_length = None; max_length = None; pattern = None; format = None;
      additional_items = None; min_items = None; max_items = None;
      unique_items = false; contains = None; min_contains = None;
      max_contains = None; pattern_properties = []; min_properties = None;
      max_properties = None; property_names = None; dependencies = [];
      all_of = []; one_of = []; not_ = None; if_ = None; ref_ = None;
      definitions = [];
      types = _; any_of = _; items = _; properties = _; required = _;
      additional_properties = _; then_ = _; else_ = _; title = _;
      description = _; default = _ } ->
      true
  | _ -> false

let rec all f = function
  | [] -> Some []
  | x :: rest -> (
      match f x with
      | None -> None
      | Some y -> Option.map (List.cons y) (all f rest))

let rec of_schema (s : Jsonschema.Schema.t) : Types.t option =
  let open Jsonschema.Schema in
  match s with
  | Bool_schema true -> Some Types.any
  | Bool_schema false -> Some Types.bot
  | Schema n when not (fragment_keywords_only n) -> None
  | Schema n -> (
      let no_structure =
        n.items = None && n.properties = [] && n.required = []
        && n.additional_properties = None
      in
      let scalar t = if no_structure then Some t else None in
      match (n.types, n.any_of) with
      | None, [] -> scalar Types.any
      | None, branches when no_structure ->
          Option.map Types.union (all of_schema branches)
      | Some [ `Null ], [] -> scalar Types.null
      | Some [ `Boolean ], [] -> scalar Types.bool
      | Some [ `Integer ], [] -> scalar Types.int
      | Some [ `Number ], [] -> scalar Types.num
      | Some [ `String ], [] -> scalar Types.str
      | Some [ `Array ], [] -> (
          match (n.items, n.properties, n.required, n.additional_properties) with
          | None, [], [], None -> Some (Types.arr Types.any)
          | Some (Items_one e), [], [], None -> Option.map Types.arr (of_schema e)
          | _ -> None)
      | Some [ `Object ], [] -> (
          match (n.items, n.additional_properties) with
          | None, Some (Bool_schema false)
            when List.for_all (fun r -> List.mem_assoc r n.properties) n.required
            ->
              Option.map Types.rec_
                (all
                   (fun (k, p) ->
                     Option.map
                       (Types.field ~optional:(not (List.mem k n.required)) k)
                       (of_schema p))
                   n.properties)
          | _ -> None)
      | _ -> None)
