(** Crash-safe checkpoint journal for supervised sharded jobs.

    Append-only NDJSON file: a header line
    [{"format":"jsontool-checkpoint/1","job":...,"engine":...,"input_fp":...}]
    followed by one line per {e completed} shard. Poisoned shards are never
    journaled — a resumed run retries them instead of inheriting their
    quarantine. Every line is flushed as a unit, so a crash loses at most
    a torn final line, which the loader silently drops (along with
    anything after it) and the resumed run recomputes.

    Resume invariants (enforced by {!start}, relied on by {!Pipeline}):

    - the journal's [job] tag, [engine] tag and input fingerprint must
      match, so a journal can never replay against different data, a
      different pipeline, or (tree vs. streaming) a different execution
      engine;
    - entries round-trip exactly ({!Resilient.ingest_of_json} inverts
      {!Resilient.ingest_to_json}; the JSON printer emits
      shortest-round-trip floats), so shards restored from the journal are
      indistinguishable from recomputed ones and the resumed job's output
      is byte-identical to an uninterrupted run's. *)

type entry = {
  e_off : int;   (** shard byte offset in the whole input *)
  e_len : int;
  e_line : int;  (** 1-based first line of the shard *)
  e_ingest : Resilient.ingest;  (** the shard's full ingest result *)
  e_payload : Json.Value.t;
      (** pipeline-specific partial result: [{"counting": ...}], the
          shard's partial counting type, for inference; the failure list
          for validation; [null] for plain ingestion *)
}

type journal

val fingerprint : string -> string
(** FNV-1a 64-bit hex of the input text — accidental-mismatch detection,
    not cryptography. *)

val start :
  path:string -> resume:bool -> job:string -> engine:string -> input:string ->
  (journal * entry list, string) result
(** Open a journal at [path] for a run of pipeline [job] on execution
    [engine] (["tree"] or ["streaming"]) over [input]. With [resume] false
    (or no file yet): truncate, write the header, return no entries. With
    [resume] true: verify the header against [job], [engine] and [input]'s
    fingerprint (mismatch is an [Error] — never silently recompute against
    the wrong journal or mix engines), load every decodable entry, drop
    the torn tail, and rewrite the file to exactly the trusted entries
    before returning them. A journal that cannot be opened, read or
    written is an [Error] as well. *)

val record : journal -> entry -> unit
(** Append one completed-shard entry and flush. *)

val close : journal -> unit

(**/**)

val entry_to_json : entry -> Json.Value.t
val entry_of_json : Json.Value.t -> (entry, string) result
