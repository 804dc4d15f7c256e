(* Compiled validation plans.

   [Validate.check] re-interprets the schema per document: every keyword is
   an [option] probe on the node record, every [$ref] is a string resolved
   through a per-document cache, and [validate ~root] even re-parses the
   whole schema document each call. This module lowers a parsed [Schema.t]
   once into a tree of specialized closures — the *plan* — and then runs
   the plan per document:

   - [$ref] targets are resolved exactly once into a memoized target table
     (cycles are detected during lowering via the in-flight stack and
     surfaced as {!cycles}); recursive targets are tied with back-patched
     cells so the plan is an ordinary immutable closure graph.
   - per-keyword checks are specialized: absent keywords cost nothing,
     [type] lowers to a kind-dispatch on precomputed booleans, [enum]
     membership goes through a hashed literal set, [properties] lookup
     through a hash table, [pattern]/[patternProperties]/[propertyNames]
     regexes and [format] checkers are bound at build time.
   - trivially-true subschemas (boolean [true], `{}`, annotation-only
     nodes) are pruned to a constant check.

   The contract that keeps the fast path honest: a plan must be
   *byte-identical* to the interpreter — same verdicts, same error records
   in the same order, same telemetry keyword counters. That is why the
   runtime still carries the interpreter's fuel and depth counters (the
   fuel budget is observable through its error message on cyclic schemas,
   and its reset-on-input rule shapes which documents exhaust it), and why
   every error string below reuses the interpreter's exact format strings.
   The differential conformance suite and the QCheck oracle in
   [test/test_jsonschema.ml] enforce the contract.

   Plans are immutable after [compile] returns and hold only immutable
   data, so one plan is safely shared across domains. *)

type error = Validate.error

(* Everything the plan needs from [Validate.config] at run time. Plans are
   config-independent: the same plan serves any config. *)
type rt = {
  formats : bool;
  max_fuel : int;
  max_depth : int;
  tele : Telemetry.sink;
}

(* A compiled check: [cc rt fuel depth schema_at at v] mirrors
   [Validate.check ctx ~fuel ~depth ~schema_at ~at s v]. *)
type cc =
  rt -> int -> int -> Json.Pointer.t -> Json.Pointer.t -> Json.Value.t ->
  error list

(* A compiled keyword: pushes errors onto a reversed accumulator, exactly
   like the interpreter's [errors] ref, so orderings agree by construction. *)
type kc =
  rt -> error list ref -> int -> int -> Json.Pointer.t -> Json.Pointer.t ->
  Json.Value.t -> unit

let kp at k = Json.Pointer.append at (Json.Pointer.Key k)
let ip at i = Json.Pointer.append at (Json.Pointer.Index i)
let add errors e = errors := e :: !errors
let add_all errors es = errors := List.rev_append es !errors

let err ~at ~schema_at sk message =
  { Validate.instance_at = at; schema_at = kp schema_at sk; message }

let depth_error rt ~schema_at ~at =
  { Validate.instance_at = at;
    schema_at;
    message =
      Printf.sprintf
        "maximum validation depth %d exceeded (deeply nested instance or recursive schema)"
        rt.max_depth }

let budget_msg = "reference expansion budget exhausted (cyclic schema?)"

(* keyword-counter handles, resolved once per module instead of per evaluation *)
let kw_ref = Telemetry.counter "validate.kw.$ref"
let kw_type = Telemetry.counter "validate.kw.type"
let kw_enum = Telemetry.counter "validate.kw.enum"
let kw_const = Telemetry.counter "validate.kw.const"
let kw_minimum = Telemetry.counter "validate.kw.minimum"
let kw_maximum = Telemetry.counter "validate.kw.maximum"
let kw_exclusive_minimum = Telemetry.counter "validate.kw.exclusiveMinimum"
let kw_exclusive_maximum = Telemetry.counter "validate.kw.exclusiveMaximum"
let kw_multiple_of = Telemetry.counter "validate.kw.multipleOf"
let kw_min_length = Telemetry.counter "validate.kw.minLength"
let kw_max_length = Telemetry.counter "validate.kw.maxLength"
let kw_pattern = Telemetry.counter "validate.kw.pattern"
let kw_format = Telemetry.counter "validate.kw.format"
let kw_min_items = Telemetry.counter "validate.kw.minItems"
let kw_max_items = Telemetry.counter "validate.kw.maxItems"
let kw_unique_items = Telemetry.counter "validate.kw.uniqueItems"
let kw_items = Telemetry.counter "validate.kw.items"
let kw_contains = Telemetry.counter "validate.kw.contains"
let kw_min_properties = Telemetry.counter "validate.kw.minProperties"
let kw_max_properties = Telemetry.counter "validate.kw.maxProperties"
let kw_required = Telemetry.counter "validate.kw.required"
let kw_property_names = Telemetry.counter "validate.kw.propertyNames"
let kw_properties = Telemetry.counter "validate.kw.properties"
let kw_pattern_properties = Telemetry.counter "validate.kw.patternProperties"
let kw_additional_properties = Telemetry.counter "validate.kw.additionalProperties"
let kw_dependencies = Telemetry.counter "validate.kw.dependencies"
let kw_all_of = Telemetry.counter "validate.kw.allOf"
let kw_any_of = Telemetry.counter "validate.kw.anyOf"
let kw_one_of = Telemetry.counter "validate.kw.oneOf"
let kw_not = Telemetry.counter "validate.kw.not"
let kw_if = Telemetry.counter "validate.kw.if"
let max_depth_g = Telemetry.gauge "validate.max_depth"

(* --- hashed literal sets ----------------------------------------------- *)

(* A hash compatible with [Json.Value.equal]: that equality sorts object
   keys (order-insensitive, multiplicity-sensitive) and compares numbers by
   value across Int/Float, so numbers hash through their float image
   (-0.0 normalized: it equals 0.0) and objects through a commutative
   combination of their fields. Collisions only cost a bucket scan. *)
let hash_num f = Hashtbl.hash (if f = 0.0 then 0.0 else f)

let rec literal_hash (v : Json.Value.t) =
  match v with
  | Json.Value.Null -> 3
  | Json.Value.Bool false -> 5
  | Json.Value.Bool true -> 7
  | Json.Value.Int n -> hash_num (float_of_int n)
  | Json.Value.Float f -> hash_num f
  | Json.Value.String s -> Hashtbl.hash s
  | Json.Value.Array vs ->
      List.fold_left (fun acc x -> (acc * 31) + literal_hash x) 11 vs
  | Json.Value.Object fields ->
      13
      + List.fold_left
          (fun acc (k, x) -> acc + (Hashtbl.hash k lxor literal_hash x))
          0 fields

let literal_set vs =
  let tbl = Hashtbl.create (2 * List.length vs) in
  List.iter
    (fun v ->
      let h = literal_hash v in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt tbl h) in
      if not (List.exists (Json.Value.equal v) bucket) then
        Hashtbl.replace tbl h (v :: bucket))
    vs;
  fun v ->
    match Hashtbl.find_opt tbl (literal_hash v) with
    | None -> false
    | Some bucket -> List.exists (Json.Value.equal v) bucket

(* --- plan lowering ------------------------------------------------------ *)

type stats = {
  mutable nodes : int;        (* subschemas lowered (incl. ref targets) *)
  mutable pruned : int;       (* trivially-true subschemas shortcut *)
  mutable ref_targets : int;  (* distinct $ref targets resolved *)
  mutable cycles : int;       (* back-edges in the $ref graph *)
}

type builder = {
  root : Json.Value.t;                      (* the schema document *)
  targets : (string, cc ref) Hashtbl.t;     (* $ref target -> compiled cell *)
  mutable in_flight : string list;          (* targets currently lowering *)
  st : stats;
}

(* only reachable before the owning [resolve_target] back-patches the cell,
   i.e. never at run time *)
let unlinked_cc : cc = fun _ _ _ _ _ _ -> assert false

(* compiled [dependencies] entry *)
type cdep = Cdep_required of string list | Cdep_schema of cc

let rec compile_schema b (s : Schema.t) : cc =
  b.st.nodes <- b.st.nodes + 1;
  match s with
  | Schema.Bool_schema true ->
      b.st.pruned <- b.st.pruned + 1;
      fun rt _fuel depth schema_at at _v ->
        if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ] else []
  | Schema.Bool_schema false ->
      fun rt _fuel depth schema_at at _v ->
        if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ]
        else
          [ { Validate.instance_at = at; schema_at; message = "schema is false" } ]
  | Schema.Schema n -> (
      match kchecks b n with
      | [||] ->
          (* annotation-only node: no keyword ever fires, but the node still
             reports its depth to the gauge and guards the depth bound,
             exactly like the interpreter entering [check_node] *)
          b.st.pruned <- b.st.pruned + 1;
          fun rt _fuel depth schema_at at _v ->
            if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ]
            else begin
              Telemetry.raise_to rt.tele max_depth_g (float_of_int depth);
              []
            end
      | ks ->
          fun rt fuel depth schema_at at v ->
            if depth > rt.max_depth then [ depth_error rt ~schema_at ~at ]
            else begin
              Telemetry.raise_to rt.tele max_depth_g (float_of_int depth);
              let errors = ref [] in
              Array.iter (fun k -> k rt errors fuel depth schema_at at v) ks;
              List.rev !errors
            end)

(* Resolve a [$ref] target once, memoized; recursion ties the knot through
   the cell. Returns the interpreter's exact [Invalid_ref] message when the
   target is unusable, so the error closure reproduces it per document. *)
and resolve_target b target : (cc ref, string) result =
  match Hashtbl.find_opt b.targets target with
  | Some cell ->
      if List.mem target b.in_flight then b.st.cycles <- b.st.cycles + 1;
      Ok cell
  | None -> (
      let ptr_str =
        if String.equal target "#" then Ok ""
        else if String.length target > 0 && target.[0] = '#' then
          Ok (String.sub target 1 (String.length target - 1))
        else Error (Printf.sprintf "unsupported (non-local) $ref %S" target)
      in
      match ptr_str with
      | Error m -> Error m
      | Ok ps -> (
          match Json.Pointer.parse ps with
          | Error msg -> Error msg
          | Ok ptr -> (
              match Json.Pointer.get ptr b.root with
              | None -> Error (Printf.sprintf "$ref target %S not found" target)
              | Some sub_json -> (
                  match Parse.of_json sub_json with
                  | Error e -> Error (Parse.string_of_error e)
                  | Ok s ->
                      b.st.ref_targets <- b.st.ref_targets + 1;
                      let cell = ref unlinked_cc in
                      Hashtbl.add b.targets target cell;
                      b.in_flight <- target :: b.in_flight;
                      let cc = compile_schema b s in
                      b.in_flight <- List.tl b.in_flight;
                      cell := cc;
                      Ok cell))))

(* One [kc] per keyword group present on the node, in the interpreter's
   evaluation order. An absent keyword contributes nothing to the array. *)
and kchecks b (n : Schema.node) : kc array =
  let ks = ref [] in
  let addk k = ks := k :: !ks in
  (* $ref *)
  (match n.Schema.ref_ with
   | None -> ()
   | Some target -> (
       match resolve_target b target with
       | Ok cell ->
           addk (fun rt errors fuel depth schema_at at v ->
               Telemetry.add rt.tele kw_ref 1;
               if fuel <= 0 then
                 add errors (err ~at ~schema_at "$ref" budget_msg)
               else
                 add_all errors
                   (!cell rt (fuel - 1) (depth + 1) (kp schema_at "$ref") at v))
       | Error msg ->
           addk (fun rt errors fuel _depth schema_at at _v ->
               Telemetry.add rt.tele kw_ref 1;
               if fuel <= 0 then
                 add errors (err ~at ~schema_at "$ref" budget_msg)
               else add errors (err ~at ~schema_at "$ref" msg))));
  (* type: kind dispatch on precomputed booleans *)
  (match n.Schema.types with
   | None -> ()
   | Some ts ->
       let null_ok = List.mem `Null ts and bool_ok = List.mem `Boolean ts
       and int_ok = List.mem `Integer ts and num_ok = List.mem `Number ts
       and str_ok = List.mem `String ts and arr_ok = List.mem `Array ts
       and obj_ok = List.mem `Object ts in
       let expected =
         String.concat " or " (List.map Schema.type_name_to_string ts)
       in
       addk (fun rt errors _fuel _depth schema_at at v ->
           Telemetry.add rt.tele kw_type 1;
           let ok =
             match v with
             | Json.Value.Null -> null_ok
             | Json.Value.Bool _ -> bool_ok
             | Json.Value.Int _ -> int_ok || num_ok
             | Json.Value.Float f -> num_ok || (int_ok && Float.is_integer f)
             | Json.Value.String _ -> str_ok
             | Json.Value.Array _ -> arr_ok
             | Json.Value.Object _ -> obj_ok
           in
           if not ok then
             add errors
               (err ~at ~schema_at "type"
                  (Printf.sprintf "expected %s, got %s" expected
                     (Json.Value.kind_name (Json.Value.kind v))))));
  (* enum / const *)
  (match n.Schema.enum with
   | None -> ()
   | Some vs ->
       let mem =
         (* the hashed set pays off past a handful of literals; tiny enums
            scan, exactly like the interpreter *)
         if List.length vs >= 4 then literal_set vs
         else fun v -> List.exists (Json.Value.equal v) vs
       in
       addk (fun rt errors _fuel _depth schema_at at v ->
           Telemetry.add rt.tele kw_enum 1;
           if not (mem v) then
             add errors
               (err ~at ~schema_at "enum"
                  "value is not one of the enumerated values")));
  (match n.Schema.const with
   | None -> ()
   | Some c ->
       let msg = "expected " ^ Json.Printer.to_string c in
       addk (fun rt errors _fuel _depth schema_at at v ->
           Telemetry.add rt.tele kw_const 1;
           if not (Json.Value.equal v c) then
             add errors (err ~at ~schema_at "const" msg)));
  (* numeric: bounds folded into one closure guarded by a single
     [number_of] probe *)
  (let nchecks = ref [] in
   let addn c = nchecks := c :: !nchecks in
   let bound keyword counter test msg = function
     | None -> ()
     | Some limit ->
         addn (fun rt errors schema_at at f _v ->
             Telemetry.add rt.tele counter 1;
             if not (test f limit) then
               add errors (err ~at ~schema_at keyword (Printf.sprintf msg limit f)))
   in
   bound "minimum" kw_minimum (fun f l -> f >= l) "expected >= %g, got %g"
     n.Schema.minimum;
   bound "maximum" kw_maximum (fun f l -> f <= l) "expected <= %g, got %g"
     n.Schema.maximum;
   bound "exclusiveMinimum" kw_exclusive_minimum (fun f l -> f > l)
     "expected > %g, got %g" n.Schema.exclusive_minimum;
   bound "exclusiveMaximum" kw_exclusive_maximum (fun f l -> f < l)
     "expected < %g, got %g" n.Schema.exclusive_maximum;
   (match n.Schema.multiple_of with
    | None -> ()
    | Some m ->
        addn (fun rt errors schema_at at f v ->
            Telemetry.add rt.tele kw_multiple_of 1;
            if not (Validate.multiple_of_value_ok v m) then
              add errors
                (err ~at ~schema_at "multipleOf"
                   (Printf.sprintf "%g is not a multiple of %g" f m))));
   match List.rev !nchecks with
   | [] -> ()
   | ncs ->
       let ncs = Array.of_list ncs in
       addk (fun rt errors _fuel _depth schema_at at v ->
           match Validate.number_of v with
           | None -> ()
           | Some f -> Array.iter (fun c -> c rt errors schema_at at f v) ncs));
  (* string: length bounds share one UTF-8 count, regex and format checker
     bound at build time *)
  (let schecks = ref [] in
   let adds c = schecks := c :: !schecks in
   (match n.Schema.min_length with
    | None -> ()
    | Some m ->
        adds (fun rt errors schema_at at _s len ->
            Telemetry.add rt.tele kw_min_length 1;
            if len < m then
              add errors
                (err ~at ~schema_at "minLength"
                   (Printf.sprintf "length %d < %d" len m))));
   (match n.Schema.max_length with
    | None -> ()
    | Some m ->
        adds (fun rt errors schema_at at _s len ->
            Telemetry.add rt.tele kw_max_length 1;
            if len > m then
              add errors
                (err ~at ~schema_at "maxLength"
                   (Printf.sprintf "length %d > %d" len m))));
   (match n.Schema.pattern with
    | None -> ()
    | Some (src, re) ->
        adds (fun rt errors schema_at at s _len ->
            Telemetry.add rt.tele kw_pattern 1;
            if not (Re.execp re s) then
              add errors
                (err ~at ~schema_at "pattern"
                   (Printf.sprintf "%S does not match /%s/" s src))));
   (match n.Schema.format with
    | None -> ()
    | Some name ->
        let checker = Validate.format_checker name in
        adds (fun rt errors schema_at at s _len ->
            if rt.formats then begin
              Telemetry.add rt.tele kw_format 1;
              match checker with
              | Some f when not (f s) ->
                  add errors
                    (err ~at ~schema_at "format"
                       (Printf.sprintf "%S is not a valid %s" s name))
              | Some _ | None -> ()
            end));
   match List.rev !schecks with
   | [] -> ()
   | scs ->
       let scs = Array.of_list scs in
       let need_len =
         n.Schema.min_length <> None || n.Schema.max_length <> None
       in
       addk (fun rt errors _fuel _depth schema_at at v ->
           match v with
           | Json.Value.String s ->
               let len = if need_len then Validate.utf8_length s else 0 in
               Array.iter (fun c -> c rt errors schema_at at s len) scs
           | _ -> ()));
  (* array *)
  (let min_i = n.Schema.min_items and max_i = n.Schema.max_items in
   let unique = n.Schema.unique_items in
   let items_cc =
     match n.Schema.items with
     | None -> None
     | Some (Schema.Items_one s) -> Some (`One (compile_schema b s))
     | Some (Schema.Items_many ss) ->
         Some
           (`Many
              ( Array.of_list (List.map (compile_schema b) ss),
                Option.map (compile_schema b) n.Schema.additional_items ))
   in
   let contains_cc = Option.map (compile_schema b) n.Schema.contains in
   let min_c = n.Schema.min_contains and max_c = n.Schema.max_contains in
   if min_i <> None || max_i <> None || unique || items_cc <> None
      || contains_cc <> None
   then
     addk (fun rt errors _fuel depth schema_at at v ->
         match v with
         | Json.Value.Array elems ->
             (if min_i <> None || max_i <> None then begin
                let len = List.length elems in
                (match min_i with
                 | None -> ()
                 | Some m ->
                     Telemetry.add rt.tele kw_min_items 1;
                     if len < m then
                       add errors
                         (err ~at ~schema_at "minItems"
                            (Printf.sprintf "%d items < %d" len m)));
                match max_i with
                | None -> ()
                | Some m ->
                    Telemetry.add rt.tele kw_max_items 1;
                    if len > m then
                      add errors
                        (err ~at ~schema_at "maxItems"
                           (Printf.sprintf "%d items > %d" len m))
              end);
             if unique then begin
               Telemetry.add rt.tele kw_unique_items 1;
               let sorted = List.sort Json.Value.compare elems in
               let rec dup = function
                 | a :: (b :: _ as rest) ->
                     Json.Value.equal a b || dup rest
                 | _ -> false
               in
               if dup sorted then
                 add errors
                   (err ~at ~schema_at "uniqueItems"
                      "array elements are not unique")
             end;
             (match items_cc with
              | None -> ()
              | Some (`One cc) ->
                  Telemetry.add rt.tele kw_items 1;
                  let sat = kp schema_at "items" in
                  List.iteri
                    (fun i x ->
                      add_all errors
                        (cc rt rt.max_fuel (depth + 1) sat (ip at i) x))
                    elems
              | Some (`Many (ccs, add_cc)) ->
                  Telemetry.add rt.tele kw_items 1;
                  let isat = kp schema_at "items" in
                  let nss = Array.length ccs in
                  let rec go i xs =
                    match xs with
                    | [] -> ()
                    | x :: xs' when i < nss ->
                        add_all errors
                          (ccs.(i) rt rt.max_fuel (depth + 1) (ip isat i)
                             (ip at i) x);
                        go (i + 1) xs'
                    | rest -> (
                        (* beyond the tuple prefix: additionalItems applies *)
                        match add_cc with
                        | None -> ()
                        | Some cc ->
                            let asat = kp schema_at "additionalItems" in
                            List.iteri
                              (fun j x ->
                                add_all errors
                                  (cc rt rt.max_fuel (depth + 1) asat
                                     (ip at (i + j)) x))
                              rest)
                  in
                  go 0 elems);
             (match contains_cc with
              | None -> ()
              | Some cc ->
                  Telemetry.add rt.tele kw_contains 1;
                  let csat = kp schema_at "contains" in
                  let hits =
                    List.length
                      (List.filter
                         (fun x ->
                           cc rt rt.max_fuel (depth + 1) csat at x = [])
                         elems)
                  in
                  let lo = Option.value ~default:1 min_c in
                  (if hits < lo then
                     add errors
                       (err ~at ~schema_at "contains"
                          (Printf.sprintf
                             "%d matching elements, need at least %d" hits lo)));
                  match max_c with
                  | Some hi when hits > hi ->
                      add errors
                        (err ~at ~schema_at "maxContains"
                           (Printf.sprintf
                              "%d matching elements, allowed at most %d" hits
                              hi))
                  | _ -> ())
         | _ -> ()));
  (* object *)
  (let min_p = n.Schema.min_properties and max_p = n.Schema.max_properties in
   let required = n.Schema.required in
   let prop_names_cc = Option.map (compile_schema b) n.Schema.property_names in
   let props_tbl =
     match n.Schema.properties with
     | [] -> None
     | props ->
         let tbl = Hashtbl.create (2 * List.length props) in
         List.iter
           (fun (k, s) ->
             (* first binding wins, like the interpreter's [assoc_opt] *)
             if not (Hashtbl.mem tbl k) then
               Hashtbl.add tbl k (compile_schema b s))
           props;
         Some tbl
   in
   let pat_props =
     Array.of_list
       (List.map
          (fun (src, re, s) -> (src, re, compile_schema b s))
          n.Schema.pattern_properties)
   in
   let add_props = Option.map (compile_schema b) n.Schema.additional_properties in
   let deps =
     List.map
       (fun (trigger, dep) ->
         match dep with
         | Schema.Dep_required needed -> (trigger, Cdep_required needed)
         | Schema.Dep_schema s -> (trigger, Cdep_schema (compile_schema b s)))
       n.Schema.dependencies
   in
   if min_p <> None || max_p <> None || required <> [] || prop_names_cc <> None
      || props_tbl <> None
      || Array.length pat_props > 0
      || add_props <> None || deps <> []
   then
     addk (fun rt errors _fuel depth schema_at at v ->
         match v with
         | Json.Value.Object fields ->
             (if min_p <> None || max_p <> None then begin
                let nfields = List.length fields in
                (match min_p with
                 | None -> ()
                 | Some m ->
                     Telemetry.add rt.tele kw_min_properties 1;
                     if nfields < m then
                       add errors
                         (err ~at ~schema_at "minProperties"
                            (Printf.sprintf "%d properties < %d" nfields m)));
                match max_p with
                | None -> ()
                | Some m ->
                    Telemetry.add rt.tele kw_max_properties 1;
                    if nfields > m then
                      add errors
                        (err ~at ~schema_at "maxProperties"
                           (Printf.sprintf "%d properties > %d" nfields m))
              end);
             if required <> [] then begin
               Telemetry.add rt.tele kw_required 1;
               List.iter
                 (fun r ->
                   if not (List.mem_assoc r fields) then
                     add errors
                       (err ~at ~schema_at "required"
                          (Printf.sprintf "missing required property %S" r)))
                 required
             end;
             (match prop_names_cc with
              | None -> ()
              | Some cc ->
                  Telemetry.add rt.tele kw_property_names 1;
                  let psat = kp schema_at "propertyNames" in
                  List.iter
                    (fun (k, _) ->
                      add_all errors
                        (cc rt rt.max_fuel (depth + 1) psat (kp at k)
                           (Json.Value.String k)))
                    fields);
             (if props_tbl <> None || Array.length pat_props > 0
                 || add_props <> None
              then
                List.iter
                  (fun (k, x) ->
                    let matched = ref false in
                    (match props_tbl with
                     | None -> ()
                     | Some tbl -> (
                         match Hashtbl.find_opt tbl k with
                         | None -> ()
                         | Some cc ->
                             matched := true;
                             Telemetry.add rt.tele kw_properties 1;
                             add_all errors
                               (cc rt rt.max_fuel (depth + 1)
                                  (kp (kp schema_at "properties") k) (kp at k)
                                  x)));
                    Array.iter
                      (fun (src, re, cc) ->
                        if Re.execp re k then begin
                          matched := true;
                          Telemetry.add rt.tele kw_pattern_properties 1;
                          add_all errors
                            (cc rt rt.max_fuel (depth + 1)
                               (kp (kp schema_at "patternProperties") src)
                               (kp at k) x)
                        end)
                      pat_props;
                    if not !matched then
                      match add_props with
                      | None -> ()
                      | Some cc ->
                          Telemetry.add rt.tele kw_additional_properties 1;
                          add_all errors
                            (cc rt rt.max_fuel (depth + 1)
                               (kp schema_at "additionalProperties") (kp at k)
                               x))
                  fields);
             List.iter
               (fun (trigger, dep) ->
                 if List.mem_assoc trigger fields then begin
                   Telemetry.add rt.tele kw_dependencies 1;
                   match dep with
                   | Cdep_required needed ->
                       List.iter
                         (fun k ->
                           if not (List.mem_assoc k fields) then
                             add errors
                               (err ~at ~schema_at "dependencies"
                                  (Printf.sprintf
                                     "property %S requires property %S" trigger
                                     k)))
                         needed
                   | Cdep_schema cc ->
                       add_all errors
                         (cc rt rt.max_fuel (depth + 1)
                            (kp (kp schema_at "dependencies") trigger) at v)
                 end)
               deps
         | _ -> ()));
  (* combinators: fuel passes through unchanged (no instance input consumed) *)
  (match n.Schema.all_of with
   | [] -> ()
   | ss ->
       let ccs = Array.of_list (List.map (compile_schema b) ss) in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.add rt.tele kw_all_of 1;
           let asat = kp schema_at "allOf" in
           Array.iteri
             (fun i cc ->
               add_all errors (cc rt fuel (depth + 1) (ip asat i) at v))
             ccs));
  (match n.Schema.any_of with
   | [] -> ()
   | ss ->
       let ccs = Array.of_list (List.map (compile_schema b) ss) in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.add rt.tele kw_any_of 1;
           let sat = kp schema_at "anyOf" in
           if not (Array.exists (fun cc -> cc rt fuel (depth + 1) sat at v = []) ccs)
           then
             add errors
               { Validate.instance_at = at;
                 schema_at = sat;
                 message = "no alternative matches" }));
  (match n.Schema.one_of with
   | [] -> ()
   | ss ->
       let ccs = Array.of_list (List.map (compile_schema b) ss) in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.add rt.tele kw_one_of 1;
           let sat = kp schema_at "oneOf" in
           let hits =
             Array.fold_left
               (fun acc cc ->
                 if cc rt fuel (depth + 1) sat at v = [] then acc + 1 else acc)
               0 ccs
           in
           if hits <> 1 then
             add errors
               { Validate.instance_at = at;
                 schema_at = sat;
                 message =
                   Printf.sprintf "%d alternatives match (need exactly 1)" hits }));
  (match n.Schema.not_ with
   | None -> ()
   | Some s ->
       let cc = compile_schema b s in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.add rt.tele kw_not 1;
           if cc rt fuel (depth + 1) (kp schema_at "not") at v = [] then
             add errors
               (err ~at ~schema_at "not" "value matches the negated schema")));
  (match n.Schema.if_ with
   | None -> ()
   | Some cond ->
       let cond_cc = compile_schema b cond in
       let then_cc = Option.map (compile_schema b) n.Schema.then_ in
       let else_cc = Option.map (compile_schema b) n.Schema.else_ in
       addk (fun rt errors fuel depth schema_at at v ->
           Telemetry.add rt.tele kw_if 1;
           let branch, which =
             if cond_cc rt fuel (depth + 1) (kp schema_at "if") at v = [] then
               (then_cc, "then")
             else (else_cc, "else")
           in
           match branch with
           | None -> ()
           | Some cc ->
               add_all errors (cc rt fuel (depth + 1) (kp schema_at which) at v)));
  Array.of_list (List.rev !ks)

(* --- access analysis ----------------------------------------------------- *)

(* What the plan can observe of a value at a given schema position. The
   streaming walker prunes everything the plan provably ignores:

   - [A_skip]: the check outcome is constant in the value (boolean schemas,
     annotation-only nodes, positions no keyword ever visits). The walker
     skims the subtree at token level ({!Json.Shape.skip}) and plants
     [Null]; any constant check still runs on the placeholder and behaves
     identically.
   - [A_node]: only the selected parts matter. The value's *kind* is always
     preserved (for [type] dispatch), numbers and booleans are materialized
     for real (they are free at token level), but string payloads are
     skimmed to [""] unless a string-content keyword is present, and
     object-field / array-element subtrees follow their own access.
   - [A_full]: materialize exactly ([enum]/[const] compare whole values,
     [uniqueItems] compares elements, [$ref] is conservatively opaque).

   Soundness invariant: a position's access over-approximates the demands
   of every checker closure that can receive that position's value. *)

type access = A_full | A_skip | A_node of node_access

and node_access = {
  a_str : bool;              (* string contents inspected here *)
  a_props : (string * access) list;  (* first-wins, like [props_tbl] *)
  a_index : (string * access) array; (* [a_props], for the walks *)
  a_other : access;          (* fields not named in [a_props] *)
  a_prefix : access list;    (* tuple prefix, from [Items_many] *)
  a_elems : access;          (* elements past the prefix *)
}

(* [a_index] is an open-addressing table on [Json.Shape.content_hash], the
   hash the shape walk has already computed when it interned the key. It is
   built eagerly, here, and never written afterwards: plans are shared
   across domains, and a wide schema's walk looks every member up in it.
   Its size is a power of two above the entry count, so a probe always
   ends at a [vacant] slot or at the key. *)
let vacant = ("", A_skip)

let node_access ~a_str ~a_props ~a_other ~a_prefix ~a_elems =
  let n = List.length a_props in
  let size = ref 1 in
  while !size <= n do size := 2 * !size done;
  let a_index = Array.make (2 * !size) vacant in
  let mask = Array.length a_index - 1 in
  List.iter
    (fun ((k, _) as entry) ->
      let j = ref (Json.Shape.content_hash k 0 (String.length k) land mask) in
      while a_index.(!j) != vacant && not (String.equal (fst a_index.(!j)) k) do
        j := (!j + 1) land mask
      done;
      (* first binding wins *)
      if a_index.(!j) == vacant then a_index.(!j) <- entry)
    a_props;
  A_node { a_str; a_props; a_index; a_other; a_prefix; a_elems }

(* the access of member [k], whose content hash is [h] *)
let hashed_key_access na k h =
  let idx = na.a_index in
  let mask = Array.length idx - 1 in
  let j = ref (h land mask) in
  while
    let e = Array.unsafe_get idx !j in
    e != vacant && not (String.equal (fst e) k)
  do
    j := (!j + 1) land mask
  done;
  let e = Array.unsafe_get idx !j in
  if e == vacant then na.a_other else snd e

let key_access na k =
  hashed_key_access na k (Json.Shape.content_hash k 0 (String.length k))

let elem_access na i =
  match List.nth_opt na.a_prefix i with Some a -> a | None -> na.a_elems

let rec access_join a b =
  match (a, b) with
  | A_full, _ | _, A_full -> A_full
  | A_skip, x | x, A_skip -> x
  | A_node x, A_node y ->
      let prop k d ps = Option.value ~default:d (List.assoc_opt k ps) in
      let keys =
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
          [] (x.a_props @ y.a_props)
      in
      let a_props =
        List.rev_map
          (fun k ->
            (k,
             access_join (prop k x.a_other x.a_props) (prop k y.a_other y.a_props)))
          keys
      in
      let nth xs d i = Option.value ~default:d (List.nth_opt xs i) in
      let plen = max (List.length x.a_prefix) (List.length y.a_prefix) in
      let a_prefix =
        List.init plen (fun i ->
            access_join (nth x.a_prefix x.a_elems i) (nth y.a_prefix y.a_elems i))
      in
      node_access ~a_str:(x.a_str || y.a_str) ~a_props
        ~a_other:(access_join x.a_other y.a_other) ~a_prefix
        ~a_elems:(access_join x.a_elems y.a_elems)

let rec access_of (s : Schema.t) : access =
  match s with
  | Schema.Bool_schema _ -> A_skip
  | Schema.Schema n ->
      (* [$ref] targets are opaque here (cycles would need a fixpoint);
         [enum]/[const] compare the whole value. *)
      if n.Schema.ref_ <> None || n.Schema.enum <> None || n.Schema.const <> None
      then A_full
      else begin
        let a_str =
          n.Schema.min_length <> None || n.Schema.max_length <> None
          || n.Schema.pattern <> None || n.Schema.format <> None
        in
        let a_props, a_other =
          if n.Schema.pattern_properties <> [] then
            (* a pattern may match any key: every field is reachable by an
               arbitrary subschema, so materialize them all *)
            ([], A_full)
          else
            ( List.fold_left
                (fun acc (k, s) ->
                  if List.mem_assoc k acc then acc else (k, access_of s) :: acc)
                [] n.Schema.properties
              |> List.rev,
              match n.Schema.additional_properties with
              | None -> A_skip
              | Some s -> access_of s )
        in
        let contains_a =
          match n.Schema.contains with Some s -> access_of s | None -> A_skip
        in
        let a_prefix, a_elems =
          if n.Schema.unique_items then ([], A_full)
          else
            match n.Schema.items with
            | None -> ([], contains_a)
            | Some (Schema.Items_one s) ->
                ([], access_join (access_of s) contains_a)
            | Some (Schema.Items_many ss) ->
                ( List.map (fun s -> access_join (access_of s) contains_a) ss,
                  access_join contains_a
                    (match n.Schema.additional_items with
                     | None -> A_skip
                     | Some s -> access_of s) )
        in
        let own = node_access ~a_str ~a_props ~a_other ~a_prefix ~a_elems in
        (* everything applied to the same value joins at this level *)
        let subs =
          List.map access_of
            (n.Schema.all_of @ n.Schema.any_of @ n.Schema.one_of)
          @ List.filter_map
              (Option.map access_of)
              [ n.Schema.not_; n.Schema.if_; n.Schema.then_; n.Schema.else_ ]
          @ List.filter_map
              (fun (_, dep) ->
                match dep with
                | Schema.Dep_required _ -> None
                | Schema.Dep_schema s -> Some (access_of s))
              n.Schema.dependencies
        in
        List.fold_left access_join own subs
      end

(* --- shape-decided plans -------------------------------------------------- *)

(* Every subschema a node's keywords can apply, to the node's value or
   below it. *)
let subschemas (n : Schema.node) =
  List.map snd n.Schema.properties
  @ List.map (fun (_, _, s) -> s) n.Schema.pattern_properties
  @ (match n.Schema.items with
     | None -> []
     | Some (Schema.Items_one s) -> [ s ]
     | Some (Schema.Items_many ss) -> ss)
  @ List.filter_map
      (fun (_, dep) ->
        match dep with
        | Schema.Dep_schema s -> Some s
        | Schema.Dep_required _ -> None)
      n.Schema.dependencies
  @ n.Schema.all_of @ n.Schema.any_of @ n.Schema.one_of
  @ List.filter_map Fun.id
      [ n.Schema.additional_properties; n.Schema.property_names;
        n.Schema.additional_items; n.Schema.contains; n.Schema.not_;
        n.Schema.if_; n.Schema.then_; n.Schema.else_ ]

(* Whether the plan reads nothing of a value but its kind, its keys and its
   counts, so that verdict, error list and keyword counters are functions
   of the document's shape. Every keyword that compares payloads (literals,
   numeric bounds, string contents, element equality) or leaves the
   schema's static structure ([$ref]) puts the plan outside. The one
   payload property [type] reads is whether a float is integral, for
   [integer]; {!types_integer} makes the shape key carry it. *)
let rec shape_decided (s : Schema.t) =
  match s with
  | Schema.Bool_schema _ -> true
  | Schema.Schema n ->
      n.Schema.ref_ = None && n.Schema.enum = None && n.Schema.const = None
      && n.Schema.minimum = None && n.Schema.maximum = None
      && n.Schema.exclusive_minimum = None && n.Schema.exclusive_maximum = None
      && n.Schema.multiple_of = None && n.Schema.min_length = None
      && n.Schema.max_length = None && n.Schema.pattern = None
      && n.Schema.format = None && not n.Schema.unique_items
      && List.for_all shape_decided (subschemas n)

let rec types_integer (s : Schema.t) =
  match s with
  | Schema.Bool_schema _ -> false
  | Schema.Schema n ->
      (match n.Schema.types with Some ts -> List.mem `Integer ts | None -> false)
      || List.exists types_integer (subschemas n)

(* --- plans -------------------------------------------------------------- *)

type plan = {
  check : cc;
  access : access;
  by_shape : bool;  (* [shape_decided] of the schema *)
  integral : bool;  (* the shape key tells integral floats apart *)
  nodes : int;
  pruned : int;
  ref_targets : int;
  cycles : int;
}

let nodes p = p.nodes
let pruned p = p.pruned
let ref_targets p = p.ref_targets
let cycles p = p.cycles

let compile ?(telemetry = Telemetry.nop) root =
  let recording = Telemetry.is_recording telemetry in
  let t0 = if recording then Telemetry.now () else 0.0 in
  match Parse.of_json root with
  | Error e ->
      (* the same error list [Validate.validate] returns on a malformed
         schema, so the engines agree even before a plan exists *)
      Error
        [ { Validate.instance_at = [];
            schema_at = e.Parse.at;
            message = e.Parse.message } ]
  | Ok s ->
      let b =
        { root;
          targets = Hashtbl.create 16;
          in_flight = [];
          st = { nodes = 0; pruned = 0; ref_targets = 0; cycles = 0 } }
      in
      let check = compile_schema b s in
      if recording then begin
        Telemetry.observe telemetry "validate.compile_ms"
          ((Telemetry.now () -. t0) *. 1000.0);
        Telemetry.gauge_max telemetry "validate.plan.nodes"
          (float_of_int b.st.nodes)
      end;
      Ok
        { check;
          access = access_of s;
          by_shape = shape_decided s;
          integral = types_integer s;
          nodes = b.st.nodes;
          pruned = b.st.pruned;
          ref_targets = b.st.ref_targets;
          cycles = b.st.cycles }

let run ?(config = Validate.default_config) plan v =
  let rt =
    { formats = config.Validate.assert_formats;
      max_fuel = config.Validate.max_ref_expansions;
      max_depth = config.Validate.max_depth;
      tele = config.Validate.telemetry }
  in
  match plan.check rt rt.max_fuel 0 [] [] v with
  | [] -> Ok ()
  | es -> Error es
  | exception Stack_overflow ->
      Error
        [ { Validate.instance_at = [];
            schema_at = [];
            message = "validation overflowed the stack (schema too deep)" } ]

let is_valid ?config plan v = Result.is_ok (run ?config plan v)

(* --- streaming execution ------------------------------------------------- *)

let tokens_c = Telemetry.counter "stream.tokens"
let skipped_bytes_c = Telemetry.counter "stream.skipped_bytes"
let hits_c = Telemetry.counter "stream.shape.hits"
let misses_c = Telemetry.counter "stream.shape.misses"

module S = Json.Shape
module L = Json.Lexer
module P = Json.Parser

(* The telemetry of a document the cursor accepted: the parser's
   per-document family, the tokens it read and the bytes it skipped.
   Returns the offset one past the document. *)
let emit_walk telemetry options w ~pos =
  let stop = L.offset w.P.lx in
  P.emit_doc telemetry options ~bytes:(stop - pos) ~nodes:w.P.nodes;
  if Telemetry.is_recording telemetry then begin
    Telemetry.add telemetry tokens_c w.P.tokens;
    Telemetry.add telemetry skipped_bytes_c w.P.skipped
  end;
  stop

(* Walk one document on the tree parser's cursor, materializing only what
   the access tree demands and planting placeholders elsewhere, for the
   ordinary plan to run on. An [A_full] subtree, and every scalar but an
   unread string, is read by the tree parser's own walk ([Parser.read]);
   the rest runs the cursor's checks in the order that walk runs them, and
   reads, counts and skips the tokens the shape pass below reads, counts
   and skips. A string's contents are read only under [a_str]. The pruning
   soundness invariant (see {!access}) makes the verdicts, error lists and
   [validate.kw.*] counters those of the tree parser's document. *)

let blank = Json.Value.String ""

let rec pruned_value w a depth =
  match a with
  | A_skip ->
      S.skip w depth;
      Json.Value.Null
  | A_full -> P.read w depth
  | A_node na ->
      P.check_depth w depth;
      let tok = P.next w in
      P.spend_node w;
      P.check_bytes_tok w;
      pruned_tok w na tok depth

and pruned_tok w na tok depth =
  match tok with
  | L.S_string when not na.a_str -> blank
  | L.S_lbracket -> pruned_array w na depth
  | L.S_lbrace -> pruned_object w na depth
  | tok -> P.read_tok w tok depth

and pruned_array w na depth =
  (* the first element's token is read before its access is known, and
     counted only when that element is walked *)
  match L.skim w.P.lx with
  | L.S_rbracket ->
      w.P.tokens <- w.P.tokens + 1;
      Json.Value.Array []
  | tok ->
      let first =
        match elem_access na 0 with
        | A_skip ->
            S.skip_tok w tok (depth + 1);
            Json.Value.Null
        | a -> (
            w.P.tokens <- w.P.tokens + 1;
            P.check_value w (depth + 1);
            match a with
            | A_node na' -> pruned_tok w na' tok (depth + 1)
            | A_full | A_skip -> P.read_tok w tok (depth + 1))
      in
      Json.Value.Array (pruned_elements w na 1 depth [ first ])

and pruned_elements w na i depth acc =
  match P.next w with
  | L.S_comma ->
      let v = pruned_value w (elem_access na i) (depth + 1) in
      pruned_elements w na (i + 1) depth (v :: acc)
  | L.S_rbracket -> List.rev acc
  | t -> P.unexpected w "',' or ']'" t

and pruned_object w na depth =
  match P.next w with
  | L.S_rbrace -> Json.Value.Object []
  | tok -> pruned_fields w na depth tok []

and pruned_fields w na depth tok acc =
  match tok with
  | L.S_string -> (
      let key = L.string_of_last w.P.lx in
      match P.next w with
      | L.S_colon -> (
          let acc = (key, pruned_value w (key_access na key) (depth + 1)) :: acc in
          match P.next w with
          | L.S_comma -> pruned_fields w na depth (P.next w) acc
          | L.S_rbrace ->
              Json.Value.Object (P.apply_dup_policy w.P.options.P.dup_keys acc (L.tok_pos w.P.lx))
          | t -> P.unexpected w "',' or '}'" t)
      | t -> P.unexpected w "':'" t)
  | t -> P.unexpected w "a field name" t

(* The skim checks no duplicate keys, so under [Reject] the walk reads the
   whole document and [apply_dup_policy] rejects at each object. *)
let walk_pruned ~options ~telemetry access src ~pos =
  let access = if options.P.dup_keys = P.Reject then A_full else access in
  let w = P.cursor options src ~pos in
  match
    P.run w.P.lx (fun () ->
        let v = pruned_value w access 0 in
        P.check_bytes_end w;
        v)
  with
  | Ok v -> Ok (v, emit_walk telemetry options w ~pos)
  | Error e -> Error e

(* the canonical fallback: the tree parser owns failure reporting (and its
   error telemetry); if it succeeds after all, validate its tree *)
let tree_fallback ~config ~options ~telemetry plan src ~pos =
  match Json.Parser.parse_substring ~options ~telemetry src ~pos with
  | Ok (v, stop) -> Ok (run ~config plan v, stop)
  | Error e -> Error e

let walk_and_run ~config ~options ~telemetry plan src ~pos =
  match walk_pruned ~options ~telemetry plan.access src ~pos with
  | Ok (v, stop) -> Ok (run ~config plan v, stop)
  | Error _ -> tree_fallback ~config ~options ~telemetry plan src ~pos

(* --- the per-shape verdict cache ------------------------------------------

   For a shape-decided plan, two documents of one shape get one verdict, one
   error list and one set of keyword counters. The shape is recorded by one
   pass on the tree parser's cursor that follows the plan's access tree as
   [walk_pruned] does: a subtree the plan ignores is skipped and recorded as
   the single code 'x', everything else is recorded code by code, so the
   pass reads, counts and skips exactly the tokens [walk_pruned] reads,
   counts and skips. Member keys are read by [Json.Shape.first_key] and
   [next_key], as the recording walk reads them: a key the position
   predicts is matched in place, and the member's access is looked up with
   the hash its intern entry stores. Each value carries its parent key, so
   an object's first key is predicted from the key above it. A hit answers
   from the cache; a miss validates with [walk_pruned] and [run] and caches
   the outcome. The budgets, depth and grammar of every document are
   checked by its own pass, hit or miss. *)

let rec shape_value sh w a parent depth =
  match a with
  | A_skip ->
      S.skip w depth;
      S.push_code sh 'x'
  | A_full -> S.record sh w parent depth
  | A_node na ->
      P.check_depth w depth;
      let tok = P.next w in
      P.spend_node w;
      P.check_bytes_tok w;
      shape_tok sh w na parent tok depth

and shape_tok sh w na parent tok depth =
  match tok with
  | L.S_lbracket ->
      S.push_code sh '[';
      shape_array sh w na parent depth
  | L.S_lbrace ->
      S.push_code sh '{';
      shape_object sh w na parent depth
  | tok -> S.record_tok sh w parent tok depth

and shape_array sh w na parent depth =
  (* the first element's token is counted only when that element is
     recorded, as [pruned_array] counts it *)
  match L.skim w.P.lx with
  | L.S_rbracket ->
      w.P.tokens <- w.P.tokens + 1;
      S.push_code sh ']'
  | tok ->
      (match elem_access na 0 with
       | A_skip ->
           S.skip_tok w tok (depth + 1);
           S.push_code sh 'x'
       | a -> (
           w.P.tokens <- w.P.tokens + 1;
           P.check_value w (depth + 1);
           match a with
           | A_node na' -> shape_tok sh w na' parent tok (depth + 1)
           | A_full | A_skip -> S.record_tok sh w parent tok (depth + 1)));
      shape_elements sh w na parent 1 depth

and shape_elements sh w na parent i depth =
  match P.next w with
  | L.S_comma ->
      shape_value sh w (elem_access na i) parent (depth + 1);
      shape_elements sh w na parent (i + 1) depth
  | L.S_rbracket -> S.push_code sh ']'
  | t -> P.unexpected w "',' or ']'" t

and shape_object sh w na parent depth =
  let k = S.first_key sh w parent in
  if k == S.closed then S.push_code sh '}' else shape_members sh w na depth k

and shape_members sh w na depth k =
  shape_value sh w (hashed_key_access na (S.key_name k) (S.key_hash k)) k (depth + 1);
  match P.next w with
  | L.S_comma -> shape_members sh w na depth (S.next_key sh w k)
  | L.S_rbrace -> S.push_code sh '}'
  | t -> P.unexpected w "',' or '}'" t

(* What one run of the plan produced: its verdict and, under a recording
   sink, the counters and gauges it emitted ([validate.kw.*],
   [validate.max_depth]), replayed on every hit. *)
type outcome = {
  verdict : (unit, error list) result;
  recorded : Telemetry.recorded;
}

(* Entries hold for one plan and one config (its sink included); the
   duplicate-key policy, which picks the members a shape resolves to, is
   the entry's context. *)
type scratch = {
  shapes : outcome S.t;
  mutable bound : (plan * Validate.config) option;
}

let scratch () = { shapes = S.create (); bound = None }

let bind sc plan config =
  match sc.bound with
  | Some (p, c) when p == plan && c == config -> ()
  | Some _ | None ->
      S.clear sc.shapes;
      sc.bound <- Some (plan, config)

(* Run the plan on a sink of its own, so the counters it emits are counted
   once on the caller's sink by the replay, never twice. *)
let run_captured ~config plan v =
  if not (Telemetry.is_recording config.Validate.telemetry) then
    { verdict = run ~config plan v; recorded = Telemetry.nothing }
  else begin
    let verdict, recorded =
      Telemetry.capture (fun telemetry ->
          run ~config:{ config with Validate.telemetry } plan v)
    in
    { verdict; recorded }
  end

let run_by_shape sc ~config ~options ~telemetry plan src ~pos =
  let sh = sc.shapes in
  S.restart ~integral:plan.integral sh;
  let w = P.cursor options src ~pos in
  match
    P.run w.P.lx (fun () ->
        shape_value sh w plan.access (S.root sh) 0;
        P.check_bytes_end w)
  with
  | Error _ -> tree_fallback ~config ~options ~telemetry plan src ~pos
  | Ok () -> (
      let ctx = S.dup_context options.Json.Parser.dup_keys in
      match S.find sh ~ctx with
      | Some o ->
          let stop = emit_walk telemetry options w ~pos in
          Telemetry.add telemetry hits_c 1;
          Telemetry.replay config.Validate.telemetry o.recorded;
          Ok (o.verdict, stop)
      | None -> (
          match walk_pruned ~options ~telemetry plan.access src ~pos with
          | Ok (v, stop) ->
              let o = run_captured ~config plan v in
              Telemetry.replay config.Validate.telemetry o.recorded;
              S.add sh ~ctx o;
              Telemetry.add telemetry misses_c 1;
              Ok (o.verdict, stop)
          | Error _ -> tree_fallback ~config ~options ~telemetry plan src ~pos))

let run_stream ?(config = Validate.default_config)
    ?(options = Json.Parser.default_options) ?(telemetry = Telemetry.nop)
    ?scratch plan src ~pos =
  match scratch with
  | Some sc when plan.by_shape && options.Json.Parser.dup_keys <> Json.Parser.Reject
    ->
      bind sc plan config;
      if S.caching sc.shapes then
        run_by_shape sc ~config ~options ~telemetry plan src ~pos
      else begin
        (* switched off: the documents are validated by the walk alone *)
        let r = walk_and_run ~config ~options ~telemetry plan src ~pos in
        if Result.is_ok r then Telemetry.add telemetry misses_c 1;
        r
      end
  | Some _ | None -> walk_and_run ~config ~options ~telemetry plan src ~pos
