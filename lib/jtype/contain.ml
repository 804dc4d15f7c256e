(* Keyword-wise containment of a type in a schema.

   A schema node is a conjunction of keyword assertions, so one keyword
   that some member of the type violates refutes the whole schema — each
   per-keyword check returns either a proof or a bag of *candidate*
   counterexamples plus the reason to report if none survives. Candidates
   are cheap to propose and only trusted after the real engines reject
   them: the final verdict never claims [Not_contained] on the checker's
   own authority, and never claims [Contained] unless every applicable
   keyword was proved for every inhabited union branch.

   Schemas in the exact structural fragment (those Interop.of_schema
   translates, Interop.to_schema's output among them) skip the keyword
   walk entirely and are decided by the kernel subtype procedure, whose
   verdicts come with their own verified witnesses.

   Schema against schema ([check_schema]) runs the same walk on the
   translation of the subschema, and only outside the fragment, or when
   the walk does not know, refutes by seeded sampling. *)

module V = Json.Value
module S = Jsonschema.Schema

type verdict = Contained | Not_contained of V.t | Unknown of string

let verdict_to_string = function
  | Contained -> "contained"
  | Not_contained w ->
      "not contained (witness: " ^ Json.Printer.to_string w ^ ")"
  | Unknown reason -> "unknown (" ^ reason ^ ")"

let c_unknown = Kernel.counter "subtype.unknown"

(* One structural check: proved, or candidates + the reason when none of
   them verifies. [Refute ([], reason)] is a pure don't-know. *)
type outcome = Proved | Refute of V.t list * string

let all outcomes =
  let rec go cands reason = function
    | [] -> (
        match reason with
        | None -> Proved
        | Some r -> Refute (List.rev cands, r))
    | Proved :: rest -> go cands reason rest
    | Refute (ws, r) :: rest ->
        let reason = match reason with Some _ -> reason | None -> Some r in
        go (List.rev_append ws cands) reason rest
  in
  go [] None outcomes

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let replicate n x = List.init (max 0 n) (fun _ -> x)

let dedup vs =
  List.rev
    (List.fold_left
       (fun acc v -> if List.exists (V.equal v) acc then acc else v :: acc)
       [] vs)

(* A small zoo of members of the type, used as extra refutation
   candidates for keywords we do not model precisely. *)
let rec samples depth (t : Types.t) : V.t list =
  if depth <= 0 then Option.to_list (Subtype.inhabitant t)
  else
    match t.Types.node with
    | Types.Bot -> []
    | Types.Null -> [ V.Null ]
    | Types.Bool -> [ V.Bool true; V.Bool false ]
    | Types.Int -> [ V.Int 0; V.Int 1; V.Int (-1); V.Int 7 ]
    | Types.Num -> [ V.Float 0.5; V.Int 0; V.Float (-1.5); V.Float 2.25 ]
    | Types.Str -> [ V.String ""; V.String "a"; V.String "zq" ]
    | Types.Any ->
        [
          V.Null; V.Bool true; V.Int 0; V.Float 0.5; V.String "";
          V.Array []; V.Object [];
        ]
    | Types.Arr e ->
        let es = take 2 (samples (depth - 1) e) in
        V.Array []
        :: List.concat_map (fun x -> [ V.Array [ x ]; V.Array [ x; x ] ]) es
    | Types.Rec fs -> rec_samples_fields depth fs
    | Types.Union ts -> take 24 (List.concat_map (samples depth) ts)

and rec_samples_fields depth fs =
  let mandatory =
    List.filter_map
      (fun (f : Types.field) ->
        if f.Types.optional then None
        else
          Option.map (fun v -> (f.Types.fname, v)) (Subtype.inhabitant f.Types.ftype))
      fs
  in
  let all_mandatory_ok =
    List.for_all
      (fun (f : Types.field) ->
        f.Types.optional || Subtype.inhabited f.Types.ftype)
      fs
  in
  if not all_mandatory_ok then []
  else
    let base = V.Object mandatory in
    let full =
      V.Object
        (List.filter_map
           (fun (f : Types.field) ->
             Option.map
               (fun v -> (f.Types.fname, v))
               (Subtype.inhabitant f.Types.ftype))
           fs)
    in
    let variants =
      List.filter_map
        (fun (f : Types.field) ->
          match take 2 (samples (depth - 1) f.Types.ftype) with
          | [ _; second ] ->
              Some
                (V.Object
                   (List.map
                      (fun (k, v) ->
                        if String.equal k f.Types.fname then (k, second)
                        else (k, v))
                      (match full with V.Object kvs -> kvs | _ -> [])))
          | _ -> None)
        fs
    in
    dedup (base :: full :: take 6 variants)

(* Distinct members of the type, for pigeonhole refutation of enum/const
   over infinite types: any finite keyword set excludes one of [k]
   distinct values... which one, the engines will tell us. *)
let rec distinct_values (t : Types.t) k : V.t list =
  if k <= 0 then []
  else
    match t.Types.node with
    | Types.Bot -> []
    | Types.Null -> [ V.Null ]
    | Types.Bool -> take k [ V.Bool true; V.Bool false ]
    | Types.Int -> List.init k (fun i -> V.Int i)
    | Types.Num -> List.init k (fun i -> V.Float (float_of_int i +. 0.5))
    | Types.Str -> List.init k (fun i -> V.String (String.make i 'a'))
    | Types.Any -> List.init k (fun i -> V.Int i)
    | Types.Arr e -> (
        match Subtype.inhabitant e with
        | None -> [ V.Array [] ]
        | Some w -> List.init k (fun i -> V.Array (replicate i w)))
    | Types.Rec fs -> (
        (* vary the first field whose type offers enough distinct values *)
        match rec_samples_fields 1 fs with
        | [] -> []
        | base :: _ -> (
            let varying =
              List.find_map
                (fun (f : Types.field) ->
                  if f.Types.optional then None
                  else
                    let vs = distinct_values f.Types.ftype k in
                    if List.length vs >= k then Some (f.Types.fname, vs)
                    else None)
                fs
            in
            match varying with
            | None -> [ base ]
            | Some (name, vs) ->
                List.map
                  (fun v ->
                    match base with
                    | V.Object kvs ->
                        V.Object
                          (List.map
                             (fun (k', v') ->
                               if String.equal k' name then (k', v) else (k', v'))
                             kvs)
                    | _ -> base)
                  vs))
    | Types.Union ts ->
        take k
          (dedup (List.concat_map (fun u -> distinct_values u k) ts))

(* The finite extension of a type, when it is finite and small. *)
let rec finite_values ?(cap = 64) (t : Types.t) : V.t list option =
  let ( let* ) = Option.bind in
  match t.Types.node with
  | Types.Bot -> Some []
  | Types.Null -> Some [ V.Null ]
  | Types.Bool -> Some [ V.Bool true; V.Bool false ]
  | Types.Int | Types.Num | Types.Str | Types.Any -> None
  | Types.Arr e -> if Subtype.inhabited e then None else Some [ V.Array [] ]
  | Types.Rec fs ->
      let rec fields acc = function
        | [] -> Some (List.map (fun kvs -> V.Object (List.rev kvs)) acc)
        | (f : Types.field) :: rest ->
            let* choices = finite_values ~cap f.Types.ftype in
            let with_present =
              List.concat_map
                (fun kvs ->
                  List.map (fun v -> (f.Types.fname, v) :: kvs) choices)
                acc
            in
            let next =
              if f.Types.optional then acc @ with_present else with_present
            in
            if List.length next > cap then None else fields next rest
      in
      fields [ [] ] fs
  | Types.Union ts ->
      let* all =
        List.fold_left
          (fun acc u ->
            let* acc = acc in
            let* vs = finite_values ~cap u in
            Some (acc @ vs))
          (Some []) ts
      in
      let d = dedup all in
      if List.length d > cap then None else Some d

(* ------------------------------------------------------------------ *)

type ctx = {
  root : S.t;  (** the whole schema, the target of ["#"] *)
  defs : (string * S.t) list;
  asserts : bool;  (** does [format] assert under this config? *)
}

let resolve ctx target =
  if String.equal target "#" then Some ctx.root
  else
    (* the common internal pointer: #/definitions/<name>; anything more
       exotic is reported, not guessed at *)
    let prefix = "#/definitions/" in
    let plen = String.length prefix in
    if String.length target > plen && String.sub target 0 plen = prefix then
      List.assoc_opt (String.sub target plen (String.length target - plen)) ctx.defs
    else None

let rec contain_ty ctx ~fuel (t : Types.t) (s : S.t) : outcome =
  match Interop.of_schema s with
  | Some ts -> (
      match Subtype.check t ts with
      | Subtype.Sub -> Proved
      | Subtype.Not_sub w -> Refute ([ w ], "kernel subtype witness")
      | Subtype.Unknown _ -> structural ctx ~fuel t s)
  | None -> structural ctx ~fuel t s

and structural ctx ~fuel (t : Types.t) (s : S.t) : outcome =
  match s with
  | S.Bool_schema true -> Proved
  | S.Bool_schema false -> (
      match Subtype.inhabitant t with
      | None -> Proved
      | Some w -> Refute ([ w ], "false schema"))
  | S.Schema n ->
      let brs =
        match t.Types.node with Types.Union ts -> ts | _ -> [ t ]
      in
      all
        (List.map
           (fun b -> branch ctx ~fuel b n)
           (List.filter Subtype.inhabited brs))

and branch ctx ~fuel (b : Types.t) (n : S.node) : outcome =
  let checks = ref [] in
  let push o = checks := o :: !checks in
  (match n.S.ref_ with
  | None -> ()
  | Some target ->
      if fuel <= 0 then push (Refute ([], "$ref expansion budget exhausted"))
      else (
        (* $ref conjoins with its siblings, mirroring Validate *)
        match resolve ctx target with
        | Some sub -> push (contain_ty ctx ~fuel:(fuel - 1) b sub)
        | None ->
            push
              (Refute
                 ( [],
                   Printf.sprintf "$ref %S outside the decided fragment" target
                 ))));
  push (type_check b n);
  push (enum_check b n);
  push (const_check b n);
  (match b.Types.node with
  | Types.Int | Types.Num -> push (numeric_checks b n)
  | Types.Str -> push (string_checks ctx b n)
  | Types.Arr e -> push (array_checks ctx ~fuel e n)
  | Types.Rec fs -> push (object_checks ctx ~fuel fs n)
  | Types.Any -> push (any_check ctx b n)
  | Types.Null | Types.Bool -> ()
  | Types.Bot | Types.Union _ -> assert false);
  List.iter (fun s -> push (contain_ty ctx ~fuel b s)) n.S.all_of;
  (match n.S.any_of with
  | [] -> ()
  | ds -> push (anyof_check ctx ~fuel b ds));
  (match n.S.one_of with
  | [] -> ()
  | _ -> push (Refute (samples 2 b, "oneOf outside the decided fragment")));
  (match n.S.not_ with
  | None -> ()
  | Some _ -> push (Refute (samples 2 b, "not outside the decided fragment")));
  (match n.S.if_ with
  | None -> ()
  | Some _ ->
      push (Refute (samples 2 b, "if/then/else outside the decided fragment")));
  all (List.rev !checks)

and anyof_check ctx ~fuel b ds =
  (* one proved disjunct proves the branch; otherwise every candidate from
     every disjunct is fair game (a value rejected by the whole anyOf) *)
  let outcomes = List.map (contain_ty ctx ~fuel b) ds in
  if List.exists (function Proved -> true | _ -> false) outcomes then Proved
  else
    all
      (List.map
         (function
           | Proved -> assert false
           | Refute (ws, r) -> Refute (ws, "anyOf: " ^ r))
         outcomes)

and type_check (b : Types.t) (n : S.node) : outcome =
  match n.S.types with
  | None -> Proved
  | Some ts ->
      let has k = List.mem k ts in
      let need ok witness = if ok then Proved else Refute ([ witness ], "type") in
      (match b.Types.node with
      | Types.Null -> need (has `Null) V.Null
      | Types.Bool -> need (has `Boolean) (V.Bool true)
      | Types.Int -> need (has `Integer || has `Number) (V.Int 0)
      | Types.Num -> need (has `Number) (V.Float 0.5)
      | Types.Str -> need (has `String) (V.String "")
      | Types.Arr _ -> need (has `Array) (V.Array [])
      | Types.Rec _ ->
          need (has `Object)
            (Option.value (Subtype.inhabitant b) ~default:(V.Object []))
      | Types.Any ->
          (* Any needs every kind admitted; each missing kind is a witness *)
          let missing =
            List.filter_map
              (fun (k, w) -> if has k then None else Some w)
              [
                (`Null, V.Null); (`Boolean, V.Bool true); (`Number, V.Float 0.5);
                (`String, V.String ""); (`Array, V.Array []);
                (`Object, V.Object []);
              ]
          in
          if missing = [] then Proved else Refute (missing, "type")
      | Types.Bot | Types.Union _ -> assert false)

and enum_check (b : Types.t) (n : S.node) : outcome =
  match n.S.enum with
  | None -> Proved
  | Some vs -> set_membership b vs "enum"

and const_check (b : Types.t) (n : S.node) : outcome =
  match n.S.const with
  | None -> Proved
  | Some c -> set_membership b [ c ] "const"

and set_membership b vs keyword =
  let mem v = List.exists (V.equal v) vs in
  match finite_values b with
  | Some values -> (
      match List.find_opt (fun v -> not (mem v)) values with
      | None -> Proved
      | Some w -> Refute ([ w ], keyword))
  | None -> (
      (* infinite type vs. finite set: k+1 distinct members must include
         an excluded one — if we managed to enumerate that many *)
      let cands = distinct_values b (List.length vs + 1) in
      match List.filter (fun v -> not (mem v)) cands with
      | [] -> Refute ([], keyword ^ " (no excluded member enumerated)")
      | ws -> Refute (take 4 ws, keyword))

and numeric_checks (b : Types.t) (n : S.node) : outcome =
  let is_int = match b.Types.node with Types.Int -> true | _ -> false in
  let big m = Float.abs m > 1e15 in
  let below keyword m strict =
    (* a member of the type smaller than (or equal to, when strict) m *)
    if big m then Refute ([], keyword ^ " (bound too large to refute)")
    else if is_int then
      let w =
        if strict then int_of_float (Float.floor m)
        else int_of_float (Float.floor m) - 1
      in
      Refute ([ V.Int w ], keyword)
    else
      let w = if strict then m else m -. 1.0 in
      Refute ([ V.Float w; V.Float (w -. 0.5) ], keyword)
  in
  let above keyword m strict =
    if big m then Refute ([], keyword ^ " (bound too large to refute)")
    else if is_int then
      let w =
        if strict then int_of_float (Float.ceil m)
        else int_of_float (Float.ceil m) + 1
      in
      Refute ([ V.Int w ], keyword)
    else
      let w = if strict then m else m +. 1.0 in
      Refute ([ V.Float w; V.Float (w +. 0.5) ], keyword)
  in
  all
    [
      (match n.S.minimum with None -> Proved | Some m -> below "minimum" m false);
      (match n.S.exclusive_minimum with
      | None -> Proved
      | Some m -> below "exclusiveMinimum" m true);
      (match n.S.maximum with None -> Proved | Some m -> above "maximum" m false);
      (match n.S.exclusive_maximum with
      | None -> Proved
      | Some m -> above "exclusiveMaximum" m true);
      (match n.S.multiple_of with
      | None -> Proved
      | Some m ->
          if is_int && m > 0.0 && Float.is_integer (1.0 /. m) then
            (* every integer is a multiple of 1/k *)
            Proved
          else if is_int then
            Refute ([ V.Int 1; V.Int 2; V.Int 3; V.Int 5 ], "multipleOf")
          else
            Refute
              ( [ V.Float (m /. 2.0); V.Float (m *. 0.3); V.Float 0.1 ],
                "multipleOf" ));
    ]

and string_checks ctx (b : Types.t) (n : S.node) : outcome =
  ignore b;
  all
    [
      (match n.S.min_length with
      | Some k when k > 0 -> Refute ([ V.String "" ], "minLength")
      | _ -> Proved);
      (match n.S.max_length with
      | Some k when k <= 100_000 ->
          Refute ([ V.String (String.make (k + 1) 'a') ], "maxLength")
      | Some _ -> Refute ([], "maxLength (bound too large to refute)")
      | None -> Proved);
      (match n.S.pattern with
      | None -> Proved
      | Some (src, _) ->
          Refute
            ( [ V.String ""; V.String "a"; V.String "0"; V.String "-" ],
              Printf.sprintf "pattern %S outside the decided fragment" src ));
      (match n.S.format with
      | Some f when ctx.asserts ->
          Refute
            ( [ V.String ""; V.String "x" ],
              Printf.sprintf "asserted format %S outside the decided fragment" f
            )
      | _ -> Proved (* annotation only: never blocks a proof *));
    ]

and array_checks ctx ~fuel (e : Types.t) (n : S.node) : outcome =
  let wrap mk = function
    | Proved -> Proved
    | Refute (ws, r) -> Refute (List.map mk ws, r)
  in
  all
    [
      (match n.S.items with
      | None -> Proved
      | Some (S.Items_one s) ->
          wrap (fun w -> V.Array [ w ]) (contain_ty ctx ~fuel e s)
      | Some (S.Items_many ss) ->
          let positional =
            List.mapi
              (fun i si ->
                (* a failing element at position i; the prefix positions
                   hold the same value — rejection anywhere suffices *)
                wrap
                  (fun w -> V.Array (replicate (i + 1) w))
                  (contain_ty ctx ~fuel e si))
              ss
          in
          let rest =
            match n.S.additional_items with
            | None -> Proved
            | Some s ->
                wrap
                  (fun w -> V.Array (replicate (List.length ss + 1) w))
                  (contain_ty ctx ~fuel e s)
          in
          all (rest :: positional));
      (match n.S.min_items with
      | Some k when k > 0 -> Refute ([ V.Array [] ], "minItems")
      | _ -> Proved);
      (match n.S.max_items with
      | None -> Proved
      | Some k -> (
          match Subtype.inhabitant e with
          | None -> Proved (* only [] inhabits the array type *)
          | Some w when k <= 10_000 ->
              Refute ([ V.Array (replicate (k + 1) w) ], "maxItems")
          | Some _ -> Refute ([], "maxItems (bound too large to refute)")));
      (if n.S.unique_items then
         match Subtype.inhabitant e with
         | Some w -> Refute ([ V.Array [ w; w ] ], "uniqueItems")
         | None -> Proved
       else Proved);
      (match n.S.contains with
      | None -> Proved
      | Some _ -> Refute ([ V.Array [] ], "contains"));
      (match n.S.max_contains with
      | None -> Proved
      | Some k -> (
          match Subtype.inhabitant e with
          | Some w when k <= 10_000 ->
              Refute ([ V.Array (replicate (k + 1) w) ], "maxContains")
          | _ -> Refute ([], "maxContains outside the decided fragment")));
    ]

and object_checks ctx ~fuel (fs : Types.field list) (n : S.node) : outcome =
  let find name =
    List.find_opt (fun (f : Types.field) -> String.equal f.Types.fname name) fs
  in
  let base = V.Object (mandatory_fields fs) in
  let full = V.Object (all_fields fs) in
  let with_field k v =
    match base with
    | V.Object kvs ->
        if List.mem_assoc k kvs then
          V.Object
            (List.map (fun (k', v') -> if String.equal k' k then (k, v) else (k', v')) kvs)
        else V.Object (kvs @ [ (k, v) ])
    | _ -> assert false
  in
  let required_checks =
    List.map
      (fun r ->
        match find r with
        | Some f when not f.Types.optional -> Proved
        | _ -> Refute ([ base ], "required"))
      n.S.required
  in
  let property_checks =
    List.map
      (fun (k, sk) ->
        match find k with
        | None -> Proved (* closed records: the field never appears *)
        | Some f ->
            (* an uninhabited optional field never appears either; the
               branch filter inside contain_ty handles that for free *)
            wrap_field with_field k (contain_ty ctx ~fuel f.Types.ftype sk))
      n.S.properties
  in
  let additional =
    match (n.S.additional_properties, n.S.pattern_properties) with
    | None, _ -> Proved
    | Some _, _ :: _ ->
        (* patternProperties changes which fields count as additional *)
        Refute
          ([ full; base ], "additionalProperties with patternProperties")
    | Some ap, [] ->
        all
          (List.filter_map
             (fun (f : Types.field) ->
               if List.mem_assoc f.Types.fname n.S.properties then None
               else
                 Some
                   (wrap_field with_field f.Types.fname
                      (contain_ty ctx ~fuel f.Types.ftype ap)))
             fs)
  in
  all
    (required_checks @ property_checks
    @ [
        additional;
        (match n.S.pattern_properties with
        | [] -> Proved
        | _ ->
            Refute ([ full; base ], "patternProperties outside the decided fragment"));
        (match n.S.property_names with
        | None -> Proved
        | Some _ ->
            Refute ([ full; base ], "propertyNames outside the decided fragment"));
        (match n.S.dependencies with
        | [] -> Proved
        | _ -> Refute ([ full; base ], "dependencies outside the decided fragment"));
        (match n.S.min_properties with
        | None -> Proved
        | Some k ->
            if List.length (mandatory_fields fs) >= k then Proved
            else Refute ([ base ], "minProperties"));
        (match n.S.max_properties with
        | None -> Proved
        | Some k ->
            if List.length (all_fields fs) <= k then Proved
            else Refute ([ full ], "maxProperties"));
      ])

and wrap_field with_field k = function
  | Proved -> Proved
  | Refute (ws, r) ->
      Refute (List.map (with_field k) ws, Printf.sprintf "properties/%s: %s" k r)

and mandatory_fields fs =
  List.filter_map
    (fun (f : Types.field) ->
      if f.Types.optional then None
      else
        Option.map (fun v -> (f.Types.fname, v)) (Subtype.inhabitant f.Types.ftype))
    fs

and all_fields fs =
  List.filter_map
    (fun (f : Types.field) ->
      Option.map (fun v -> (f.Types.fname, v)) (Subtype.inhabitant f.Types.ftype))
    fs

and any_check ctx (b : Types.t) (n : S.node) : outcome =
  (* [Any] meets every keyword family; type/enum/const/combinators are
     handled by the shared checks, so only per-kind keywords remain. A
     single present keyword already constrains some kind of value. *)
  let constrained =
    n.S.multiple_of <> None || n.S.maximum <> None || n.S.minimum <> None
    || n.S.exclusive_maximum <> None || n.S.exclusive_minimum <> None
    || n.S.min_length <> None || n.S.max_length <> None || n.S.pattern <> None
    || (ctx.asserts && n.S.format <> None)
    || n.S.items <> None || n.S.additional_items <> None
    || n.S.min_items <> None || n.S.max_items <> None || n.S.unique_items
    || n.S.contains <> None || n.S.max_contains <> None
    || n.S.properties <> [] || n.S.pattern_properties <> []
    || n.S.additional_properties <> None || n.S.required <> []
    || n.S.min_properties <> None || n.S.max_properties <> None
    || n.S.property_names <> None || n.S.dependencies <> []
  in
  if constrained then
    Refute (samples 2 b, "open type (⊤) against a constraining keyword")
  else Proved

(* ------------------------------------------------------------------ *)

let check ?(config = Jsonschema.Validate.default_config) ~root (t : Types.t) :
    verdict =
  match Jsonschema.Parse.of_json root with
  | Error e ->
      Kernel.hit c_unknown;
      Unknown ("schema does not parse: " ^ Jsonschema.Parse.string_of_error e)
  | Ok schema ->
      let defs =
        match schema with S.Schema n -> n.S.definitions | S.Bool_schema _ -> []
      in
      let ctx = { root = schema; defs; asserts = config.Jsonschema.Validate.assert_formats } in
      let plan = Jsonschema.Compile.compile root in
      let rejected w =
        (not (Jsonschema.Validate.is_valid ~config ~root w))
        &&
        match plan with
        | Ok p -> not (Jsonschema.Compile.is_valid ~config p w)
        | Error _ -> true
      in
      let verify w = Typecheck.member w t && rejected w in
      (match contain_ty ctx ~fuel:32 t schema with
      | Proved -> Contained
      | Refute (ws, reason) -> (
          match
            List.find_opt verify (dedup (ws @ take 16 (samples 2 t)))
          with
          | Some w -> Not_contained w
          | None ->
              Kernel.hit c_unknown;
              Unknown reason))

(* ------------------------------------------------------------------ *)

(* Draws of the sampling refutation; the seed keeps its verdicts
   reproducible. *)
let refutation_draws = 200

(* [v] with one member whose key neither [v] nor the schema's root
   [properties] declares, if [v] is an object: the generator only emits
   declared members, so without this an open object schema never meets
   the instance that tells it from its closed form. *)
let with_undeclared sub v =
  match v with
  | Json.Value.Object fields ->
      let declared =
        match sub with
        | Json.Value.Object kws -> (
            match List.assoc_opt "properties" kws with
            | Some (Json.Value.Object props) -> List.map fst props
            | Some _ | None -> [])
        | _ -> []
      in
      let taken k = List.mem_assoc k fields || List.mem k declared in
      let rec key i =
        let k = if i = 0 then "x" else "x" ^ string_of_int i in
        if taken k then key (i + 1) else k
      in
      Some (Json.Value.Object (fields @ [ (key 0, Json.Value.Int 0) ]))
  | _ -> None

let refute ~sub super =
  let rejected v = not (Jsonschema.Validate.is_valid ~root:super v) in
  let draws pick =
    let st = Jsonschema.Generate.rng ~seed:97 in
    let rec go k =
      if k = 0 then None
      else
        match Option.bind (Jsonschema.Generate.generate_valid st ~root:sub) pick with
        | Some _ as w -> w
        | None -> go (k - 1)
    in
    go refutation_draws
  in
  match draws (fun v -> if rejected v then Some v else None) with
  | Some _ as w -> w
  | None ->
      (* the same draws again, each widened by an undeclared member *)
      draws (fun v ->
          match with_undeclared sub v with
          | Some w when Jsonschema.Validate.is_valid ~root:sub w && rejected w -> Some w
          | Some _ | None -> None)

let check_schema ~sub super =
  match (Jsonschema.Parse.of_json sub, Jsonschema.Parse.of_json super) with
  | Error e, _ | _, Error e ->
      Unknown ("schema does not parse: " ^ Jsonschema.Parse.string_of_error e)
  | Ok sub_schema, Ok _ -> (
      let decided =
        match Interop.of_schema sub_schema with
        | None -> Unknown "sub-schema outside the decided fragment"
        | Some t -> (
            match check ~root:super t with
            | Not_contained w when not (Jsonschema.Validate.is_valid ~root:sub w)
              ->
                Unknown "witness rejected by the sub-schema"
            | v -> v)
      in
      match decided with
      | Unknown reason -> (
          match refute ~sub super with
          | Some w -> Not_contained w
          | None -> Unknown reason)
      | v -> v)
