(** Deterministic fault injection for NDJSON inputs.

    The robustness tests and the [bench] robustness scenario need corpora
    with a *known* number of faults of a *known* kind, reproducible from a
    seed. [corrupt] walks an NDJSON text line by line and, at the given
    rate, injects one of four faults the tutorial's "massive and messy"
    discussion calls out:

    - {e truncation} — the line is cut mid-document (a crashed producer);
    - {e bit flips} — one bit of one byte is flipped (storage/transport
      corruption);
    - {e duplicate lines} — the record is emitted twice (at-least-once
      delivery);
    - {e oversized documents} — the record is wrapped in a padded envelope
      that stays valid JSON but blows any per-document byte budget.

    Faults in the first two classes carry a poison prefix that makes the
    line unparseable (a flip inside a string payload, or a truncation at a
    value boundary, may otherwise leave the line valid), so [corrupting] is
    exactly the number of records a quarantining ingester must reject —
    tests assert equality, not inequality. The prefix is not what keeps the
    error inside the line: {!Resilient.scan} contains a line that is
    a valid JSON prefix on its own. *)

type fault = Truncate | Bit_flip | Duplicate_line | Oversize

val fault_name : fault -> string
val all_faults : fault list

type injected = {
  line : int;      (** 1-based input line the fault was applied to *)
  out_line : int;  (** 1-based line the faulted record lands on in [text]
                       (duplications above shift the two apart) *)
  fault : fault;
  site : string;   (** stable site id, e.g. ["chaos:truncate@L12"] —
                       threads injected faults into quarantine reports *)
}

val site_id : fault -> int -> string
(** [site_id fault line] is the id stamped on an injection at input
    [line]. *)

type outcome = {
  text : string;            (** the corrupted NDJSON *)
  injected : injected list; (** every fault, in input order *)
  corrupting : int;  (** faults guaranteed to defeat the parser *)
  oversized : int;   (** valid-but-huge records (budget kills) *)
  duplicated : int;  (** records emitted twice (still valid) *)
}

val corrupt :
  ?faults:fault list ->
  ?pad:int ->
  seed:int ->
  rate:float ->
  string ->
  outcome
(** [corrupt ~seed ~rate text] injects a fault into roughly [rate] of the
    non-blank lines, drawing faults uniformly from [faults] (default
    {!all_faults}) with a PRNG seeded by [seed] — same seed, same input,
    same outcome. [pad] (default 65536) is the envelope size used by
    [Oversize]; pick it above the ingestion byte budget under test. *)

val attribute :
  outcome -> Resilient.dead_letter list -> Resilient.dead_letter list
(** Rewrite the [cause] of every dead letter that an injected
    quarantine-causing fault (truncate / bit-flip / oversize) can claim —
    matched by the fault's [out_line] against the letter's whole-input line
    — to that fault's {!field-injected.site}. Letters no fault claims keep
    their parse-derived cause: after attribution, a drill is
    distinguishable from a real corpus problem in quarantine output. *)

val worker_faults :
  seed:int -> rate:float -> ?permanent:bool -> unit ->
  shard:int -> attempt:int -> string option
(** A deterministic worker-fault plan for {!Supervisor.run}'s [inject]
    hook: roughly [rate] of the shards fault, decided purely by
    [(seed, shard)] so the plan is independent of call order, retries, and
    resume. A faulted shard yields [Some site]. By default faults are
    {e transient} — the first 1–2 attempts fail, then the shard heals, so a
    retry policy with enough attempts recovers it; with [~permanent:true]
    every attempt fails and the shard must be poisoned. *)
