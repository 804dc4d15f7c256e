(** JSON serialization.

    [to_string] produces compact output; [to_string_pretty] produces
    2-space-indented output. Both escape control characters, quotes and
    backslashes, and print floats with the shortest round-tripping literal
    (see {!Number.print_float}).

    Output is always valid UTF-8 (RFC 8259 §8.1): well-formed multi-byte
    sequences in strings pass through byte-for-byte, while every byte that
    is not part of one — stray continuation bytes, overlong encodings,
    surrogate encodings, truncated sequences — is replaced by one U+FFFD
    replacement character, so printed documents re-parse and checkpoint
    journals survive arbitrary byte junk in quarantined inputs. *)

val escape_string : string -> string
(** The JSON string literal for [s], including the surrounding quotes. *)

val to_string : Value.t -> string
val to_string_pretty : ?indent:int -> Value.t -> string

val length : Value.t -> int
(** [String.length (to_string v)], computed by a walk that builds nothing
    but the literal of each float. *)

val to_buffer : Buffer.t -> Value.t -> unit
val to_channel : out_channel -> Value.t -> unit

val pp : Format.formatter -> Value.t -> unit
(** Compact form, suitable for Alcotest testables and logs. *)

val pp_pretty : Format.formatter -> Value.t -> unit
