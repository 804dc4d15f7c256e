(** Raw byte-level scanning over JSON text, without tokenizing.

    These are the "skip without parsing" primitives that give Mison and
    Fad.js their speed: a value that the query does not need is stepped
    over by bracket/quote counting only — no unescaping, no number
    conversion, no tree allocation. *)

val skip_ws : string -> int -> int
(** First offset ≥ the argument that is not JSON whitespace. *)

val skip_string : string -> int -> (int, string) result
(** [skip_string s i] with [s.[i] = '"']: offset one past the closing
    quote, honoring backslash escapes. *)

val skip_value : string -> int -> (int, string) result
(** Offset one past the JSON value starting at the given offset (which must
    not be whitespace). Containers are skipped by depth counting with
    in-string awareness; scalars by delimiter scanning. The value is not
    validated beyond bracket balance. *)

val raw_key_at : string -> colon:int -> (string * int, string) result
(** Scan {e backward} from a colon position to extract the raw (still
    escaped) field name, returning the name and the offset of its opening
    quote. This is how Mison recovers field names from its colon bitmap. *)
