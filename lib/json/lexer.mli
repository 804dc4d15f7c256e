(** Hand-written JSON lexer with byte-accurate source positions.

    One token source, {!skim}, serves the tree parser ({!Parser}) and every
    streaming walk ({!Shape}, and through it inference and validation):
    tokens are constants, payloads stay in the source until asked for
    ({!string_of_last} unescapes a string, surrogate pairs included;
    {!number_of_last} evaluates a number), and {!skim_key} reads a member
    key the walk expects by comparing bytes. *)

type position = { offset : int; line : int; column : int }
(** 0-based byte [offset]; 1-based [line] and [column]. *)

exception Lex_error of position * string

exception Limit_error of position * string
(** A lexical resource budget (currently the string-length cap) was hit.
    Distinct from {!Lex_error} so callers can classify the failure as a
    budget kill rather than a syntax error. *)

type t
(** Lexer state over an in-memory document. *)

(** [create ?pos ?max_string_bytes src] lexes [src] starting at byte offset
    [pos] (default 0; line/column numbers are counted from that point).
    [max_string_bytes] caps the unescaped length of any one string literal;
    exceeding it raises {!Limit_error}. *)
val create : ?pos:int -> ?max_string_bytes:int -> string -> t

val position : t -> position
(** Current position (after the last consumed token). *)

val offset : t -> int
(** Current byte offset — [(position lx).offset] without the record. *)

(** {2 Allocation-free skim tokens}

    The walks lex millions of tokens per shard; returning a token with a
    payload plus a position record per token is pure GC pressure when the
    consumer mostly branches on the token's kind. [skim] returns an
    immediate constant instead: numbers are classified int-vs-float in
    place (evaluate one with {!number_of_last}), string contents stay in
    the source (recover them with {!last_string_start} /
    {!string_of_last}), and the token's start offset is latched on the
    lexer ({!tok_start}, {!tok_pos}). Every malformed-input error and the
    string budget are raised by [skim] itself; the accessors never fail. *)

type skim_tok =
  | S_lbrace
  | S_rbrace
  | S_lbracket
  | S_rbracket
  | S_colon
  | S_comma
  | S_true
  | S_false
  | S_null
  | S_int  (** number literal that evaluates to an integer *)
  | S_float  (** number literal that evaluates to a float *)
  | S_string  (** string literal; span latched on the lexer *)
  | S_eof

val skim : t -> skim_tok
(** Next token as an unallocated constant.
    @raise Lex_error on malformed input.
    @raise Limit_error on a string over [max_string_bytes]. *)

type key_match =
  | No_key  (** the next token is not that key; only whitespace consumed *)
  | Key  (** the key, as one [S_string] *)
  | Key_colon  (** the key and the [S_colon] right after its closing quote *)

val skim_key : t -> string -> key_match
(** [skim_key lx name]: whether the next token is the member key [name],
    spelled raw, compared byte by byte in place instead of scanned. [name]
    must be plain: no ['"'], no ['\\'] and no byte below 0x20, so that its
    raw spelling is its contents. On a match the lexer is where {!skim}
    would leave it after the key (and after a colon that follows the
    closing quote at once): {!tok_start} and the string span are latched
    as {!skim} latches them. A key longer than [max_string_bytes] never
    matches, so the {!skim} the caller falls back on raises the canonical
    {!Limit_error}. *)

val skim_name : skim_tok -> string
(** Human-readable token description for error messages. *)

val tok_start : t -> int
(** Byte offset where the last {!skim}med token starts. *)

val tok_pos : t -> position
(** Position where the last {!skim}med token starts — built on demand, for
    error paths only. *)

val last_string_start : t -> int
val last_string_stop : t -> int
(** The contents span [start, stop) of the last [S_string], exclusive of
    its quotes, in the source. Separate accessors rather than one tuple so
    a per-key caller allocates nothing. *)

val last_string_escaped : t -> bool
(** Whether the last [S_string] contains backslash escapes, in which case
    its raw span is not its decoded contents. *)

val string_of_last : t -> string
(** Decoded contents of the last [S_string] token: a direct substring when
    the span is escape-free, otherwise its escapes decoded (the skim has
    checked them). *)

val number_of_last : t -> Number.parsed
(** Value of the number token {!skim} just returned ([S_int] or
    [S_float]), called before the next {!skim}: a plain integer evaluated
    in place, anything else through {!Number.parse}. *)

val source : t -> string
(** The document being lexed (for span-based consumers). *)
