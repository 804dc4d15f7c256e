type fault = Truncate | Bit_flip | Duplicate_line | Oversize

let fault_name = function
  | Truncate -> "truncate"
  | Bit_flip -> "bit-flip"
  | Duplicate_line -> "duplicate-line"
  | Oversize -> "oversize"

let all_faults = [ Truncate; Bit_flip; Duplicate_line; Oversize ]

type injected = { line : int; out_line : int; fault : fault; site : string }

let site_id fault line = Printf.sprintf "chaos:%s@L%d" (fault_name fault) line

type outcome = {
  text : string;
  injected : injected list;
  corrupting : int;
  oversized : int;
  duplicated : int;
}

(* A prefix after which no suffix forms valid JSON: '{' must be followed by a
   field name or '}', and ',' is neither — the parse error lands on the
   second byte, *inside* the faulted line. Prepending it to every corrupting
   fault guarantees that the line never parses (a bit flip inside a string
   payload, or a truncation at a value boundary, could otherwise leave valid
   JSON). That is what lets tests assert [quarantined = corrupting] exactly.
   Containment needs no prefix: a bare truncation like ["[1,"] is a valid
   JSON prefix, and the ingester reports it with the error of its own line
   alone, so the healthy record after it survives. *)
let poison = "{,"

let is_valid_json line = Result.is_ok (Json.Parser.parse line)

let truncate st line =
  let n = String.length line in
  if n <= 1 then line
  else String.sub line 0 (1 + Random.State.int st (n - 1))

let bit_flip st line =
  let n = String.length line in
  if n = 0 then line
  else begin
    let b = Bytes.of_string line in
    let i = Random.State.int st n in
    let bit = Random.State.int st 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    (* newlines would silently split the record in two and desynchronize
       fault accounting; remap them *)
    let c = Bytes.get b i in
    if c = '\n' || c = '\r' then Bytes.set b i '#';
    Bytes.to_string b
  end

(* Wrap the record in an envelope padded past any reasonable byte budget;
   the result is *valid* JSON that a budgeted ingester must kill. *)
let oversize ~pad line =
  let payload = if is_valid_json line then line else "null" in
  Printf.sprintf {|{"chaos_pad":"%s","doc":%s}|} (String.make pad 'x') payload

let corrupt ?(faults = all_faults) ?(pad = 65536) ~seed ~rate text =
  let st = Random.State.make [| seed |] in
  let faults = if faults = [] then all_faults else faults in
  let pick () = List.nth faults (Random.State.int st (List.length faults)) in
  let buf = Buffer.create (String.length text) in
  let injected = ref [] in
  let corrupting = ref 0 in
  let oversized = ref 0 in
  let duplicated = ref 0 in
  let lines = String.split_on_char '\n' text in
  (* 1-based line the next [emit] lands on in the corrupted output; faults
     record it so quarantine output can be attributed back to the injection
     site even though duplications shift everything below them *)
  let out = ref 1 in
  let emit line = Buffer.add_string buf line; Buffer.add_char buf '\n'; incr out in
  List.iteri
    (fun i line ->
      if String.trim line = "" then ()
      else if Random.State.float st 1.0 >= rate then emit line
      else begin
        let fault = pick () in
        injected :=
          { line = i + 1; out_line = !out; fault; site = site_id fault (i + 1) }
          :: !injected;
        match fault with
        | Duplicate_line ->
            incr duplicated;
            emit line;
            emit line
        | Oversize ->
            incr oversized;
            emit (oversize ~pad line)
        | Truncate | Bit_flip ->
            incr corrupting;
            let corrupted =
              match fault with
              | Truncate -> truncate st line
              | _ -> bit_flip st line
            in
            (* poison unconditionally: a flip inside a string payload can
               leave the line parseable, and a truncation can leave a valid
               JSON *prefix* whose parse error would land on the next line *)
            emit (poison ^ corrupted)
      end)
    lines;
  { text = Buffer.contents buf;
    injected = List.rev !injected;
    corrupting = !corrupting;
    oversized = !oversized;
    duplicated = !duplicated }

(* --- attribution -------------------------------------------------------- *)

let attribute outcome dead =
  (* only the fault classes that *cause* quarantine can claim a dead letter;
     a Duplicate_line record is valid JSON and any failure on it is real *)
  let sites = Hashtbl.create 16 in
  List.iter
    (fun inj ->
      match inj.fault with
      | Truncate | Bit_flip | Oversize -> Hashtbl.replace sites inj.out_line inj.site
      | Duplicate_line -> ())
    outcome.injected;
  List.map
    (fun (d : Resilient.dead_letter) ->
      match Hashtbl.find_opt sites d.Resilient.line with
      | Some site -> { d with Resilient.cause = site }
      | None -> d)
    dead

(* --- deterministic worker-fault plans ----------------------------------- *)

let worker_faults ~seed ~rate ?(permanent = false) () ~shard ~attempt =
  (* the plan is a pure function of (seed, shard): re-seeding per call makes
     the decision independent of call order, so a retried or resumed run
     sees exactly the faults the first run saw *)
  let st = Random.State.make [| 0x57ea1; seed; shard |] in
  if Random.State.float st 1.0 >= rate then None
  else if permanent then Some (Printf.sprintf "chaos:worker@shard%d:permanent" shard)
  else begin
    (* transient: the first k attempts fail, then the shard heals — a retry
       policy with max_attempts > k must recover it *)
    let k = 1 + Random.State.int st 2 in
    if attempt <= k then
      Some (Printf.sprintf "chaos:worker@shard%d:transient%d" shard k)
    else None
  end
