(** Hand-written JSON lexer with byte-accurate source positions.

    It has two token APIs over one set of scanners. {!next} and {!peek}
    serve the tree parser ({!Parser}) and the event parser ({!Stream}):
    each token comes with its position, strings unescaped (surrogate pairs
    included) and numbers evaluated. {!skim} serves every streaming walk
    ({!Shape}, and through it inference and validation): tokens are
    constants and payloads stay in the source until asked for, and
    {!skim_key} reads a member key the walk expects by comparing bytes. *)

type position = { offset : int; line : int; column : int }
(** 0-based byte [offset]; 1-based [line] and [column]. *)

type token =
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Colon
  | Comma
  | True
  | False
  | Null_tok
  | String_tok of string  (** unescaped contents *)
  | Number_tok of Number.parsed
  | Eof

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
val next : t -> token * position
(** Next token and the position where it starts.
    @raise Lex_error on malformed input. *)

val peek : t -> token * position
(** Like {!next} without consuming. *)

val position : t -> position
(** Current position (after the last consumed token). *)

val offset : t -> int
(** Current byte offset — [(position lx).offset] without the record. *)

val token_name : token -> string
(** Human-readable token description for error messages. *)

(** {2 Allocation-free skim tokens}

    The token source of every streaming walk. The walks lex millions of
    tokens per shard; returning a [(token * position)] tuple plus a
    position record per token is pure GC pressure when the consumer mostly
    branches on the token's kind. [skim] returns an immediate constant
    instead: numbers are classified int-vs-float in place (evaluate one
    with {!number_of_last}), string contents stay in the source (recover
    them with {!last_string_start} / {!string_of_last}), and the token's
    start offset is latched on the lexer ({!tok_start}, {!tok_pos}).
    Scanning, budgets, and malformed-input errors are shared with {!next},
    so a skim loop fails at exactly the byte a materializing lex would. *)

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
(** Next token as an unallocated constant. Must not be called with a
    {!peek}ed token pending (raises [Invalid_argument]); the streaming
    engines own their lexer and never peek.
    @raise Lex_error on malformed input, as {!next} would. *)

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
    {!Limit_error}. Raises [Invalid_argument] with a {!peek}ed token
    pending, as {!skim} does. *)

val skim_name : skim_tok -> string
(** Human-readable description, matching {!token_name} on the
    corresponding token. *)

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
    the span is escape-free, otherwise a re-lex through the canonical
    unescaper. *)

val number_of_last : t -> Number.parsed
(** Value of the number token {!skim} just returned ([S_int] or
    [S_float]), called before the next {!skim}: what {!next}'s
    [Number_tok] carries for the same literal, from the same evaluator
    (an integer evaluated in place, anything else through
    {!Number.parse}). *)

val source : t -> string
(** The document being lexed (for span-based consumers). *)
