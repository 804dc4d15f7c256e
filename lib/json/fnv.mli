(** FNV-1a 64-bit: cheap, dependency-free and stable across runs. It
    detects accidental mismatches (a journal resumed against other data, a
    schema edited between runs); it resists no adversary. *)

val hash64 : string -> int64

val hex : string -> string
(** [hash64] as 16 lowercase hex digits: [hex ""] is
    ["cbf29ce484222325"], [hex "a"] is ["af63dc4c8601ec8c"]. *)
