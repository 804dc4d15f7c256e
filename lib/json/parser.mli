(** Recursive-descent JSON parser producing {!Value.t} trees.

    RFC 8259 compliant: any value may appear at the top level, strings are
    unescaped, numbers follow the strict grammar. Behaviour knobs that real
    deployments disagree on — duplicate keys, nesting limits, trailing
    garbage — are explicit {!options}.

    The parser walks {!Lexer.skim} tokens on a document {!cursor}, which
    carries the node, byte and depth accounting and the grammar errors;
    every streaming walk ({!Shape}, and through it inference and
    validation) reads its tokens through the same cursor, so a walk that
    succeeds has accepted exactly what this parser accepts. *)

type dup_policy =
  | Keep_first   (** ignore later bindings of a repeated key *)
  | Keep_last    (** later bindings win (JavaScript semantics, default) *)
  | Reject       (** duplicate key is a parse error *)
  | Keep_all     (** preserve every binding in document order *)

type options = {
  dup_keys : dup_policy;
  max_depth : int;        (** nesting limit to bound stack use *)
  allow_trailing : bool;  (** permit trailing input after the value *)
  max_doc_bytes : int option;
      (** cap on the byte span one document may occupy *)
  max_nodes : int option;
      (** cap on the number of JSON nodes (scalars + containers) per doc *)
  max_string_bytes : int option;
      (** cap on the unescaped length of any one string literal *)
}

val default_options : options
(** [Keep_last], depth 512, no trailing input, no byte/node/string budgets. *)

(** Which resource budget a document blew. [Documents_exceeded] is never
    produced by the parser itself — it is the document-count cap enforced by
    the ingestion layer ({!Core.Resilient}), declared here so every budget
    failure shares one type. *)
type budget_violation =
  | Depth_exceeded
  | Bytes_exceeded
  | Nodes_exceeded
  | String_exceeded
  | Documents_exceeded

type error_kind =
  | Syntax                                (** malformed JSON *)
  | Budget_exceeded of budget_violation   (** well-formed but over a cap *)

type error = { position : Lexer.position; message : string; kind : error_kind }

val violation_name : budget_violation -> string
(** Short flag-style name ("max-depth", "max-bytes", ...) for reports. *)

val is_budget_error : error -> bool

val string_of_error : error -> string

val parse :
  ?options:options -> ?telemetry:Telemetry.sink -> string ->
  (Value.t, error) result
(** Parse one JSON document from a string. [telemetry] (default
    {!Telemetry.nop}) receives per-document counters and histograms:
    [parse.docs] / [parse.bytes] / [parse.nodes], size distributions
    [parse.doc_bytes] / [parse.doc_nodes], budget-headroom histograms when
    the corresponding cap is set, and error counters keyed by
    {!error_kind} ([parse.errors.syntax], [parse.errors.budget.<cap>]). *)

val parse_exn : ?options:options -> string -> Value.t
(** @raise Failure with a formatted message on error. *)

val parse_many :
  ?options:options -> ?telemetry:Telemetry.sink -> string ->
  (Value.t list, error) result
(** Parse a whitespace/newline-separated stream of documents (NDJSON and
    concatenated JSON both work). Each document's bytes, for
    [max_doc_bytes] and telemetry, run from its first byte to its last, as
    {!parse_substring} counts them; positions are absolute in the text.
    Telemetry as for {!parse}, one observation per document. *)

val parse_substring :
  ?options:options -> ?telemetry:Telemetry.sink -> string -> pos:int ->
  (Value.t * int, error) result
(** Parse one value starting at byte [pos]; returns the value and the offset
    one past its last byte. Used by the lazy/speculative parsers. *)

val fold_documents :
  ?options:options -> string -> init:'a -> f:('a -> Value.t -> 'a) ->
  ('a, error) result
(** Fold over an NDJSON / concatenated-JSON collection one parsed document
    at a time ({!parse_substring} from each document's first byte, so
    positions are document-relative): constant memory in the number of
    documents. *)

(** {1 Building blocks for alternative executors}

    The streaming engines ({!Inference.Streaming},
    [Jsonschema.Compile.run_stream]) walk the tokens their own way but must
    fail, account, and report {e exactly} like this parser. These exports
    let them share the authoritative pieces instead of copying them. *)

val fail : ?kind:error_kind -> Lexer.position -> string -> 'a
(** Raise the parser's own error exception; callers recover it via {!run}. *)

val apply_dup_policy :
  dup_policy -> (string * 'a) list -> Lexer.position -> (string * 'a) list
(** Resolve repeated keys in a field list given in {e reverse} document
    order; the position is where a [Reject] error is reported (the closing
    brace). Polymorphic in the payload so token-level engines can apply the
    same semantics to types instead of values. *)

(** {2 The document cursor} *)

type cursor = {
  lx : Lexer.t;
  start : int;  (** the document's first byte, for [max_doc_bytes] *)
  options : options;
  mutable nodes : int;  (** nodes spent, as [parse.nodes] counts them *)
  mutable tokens : int;  (** tokens read through {!next} *)
  mutable skipped : int;
      (** bytes a walk stepped over without reading its tokens through
          {!next} ({!Shape.skip}) *)
}
(** A cursor over one document: its lexer, its limits and its counts. *)

val cursor : options -> string -> pos:int -> cursor
(** Start a cursor on the document at byte [pos]. *)

val next : cursor -> Lexer.skim_tok
(** {!Lexer.skim}, counted in [tokens]. *)

val spend_node : cursor -> unit
(** Count one node; past [max_nodes], fail at the last token. *)

val check_bytes_tok : cursor -> unit
(** Fail if the last token starts past [max_doc_bytes]. *)

val check_bytes_end : cursor -> unit
(** Fail if the current offset is past [max_doc_bytes]: after a document's
    last token. *)

val check_depth : cursor -> int -> unit
(** Fail if the depth is past [max_depth], at the current offset. *)

val check_value : cursor -> int -> unit
(** {!check_depth}, {!spend_node} and {!check_bytes_tok}: the checks of a
    value whose first token is read already, an array's first element (its
    token is read to see whether it closes the array). Any other value is
    checked for depth before its token is read, as {!read} does. *)

val unexpected : cursor -> string -> Lexer.skim_tok -> 'b
(** [unexpected c what t] fails with ["expected <what>, got <t>"] at the
    last token. *)

(** {2 The tree walk} *)

val read : cursor -> int -> Value.t
(** Read one value at the given depth: every token counted, every check
    run, duplicate keys resolved by the cursor's policy. *)

val read_tok : cursor -> Lexer.skim_tok -> int -> Value.t
(** {!read} for a value whose first token is already read, counted and
    checked. *)

val run : Lexer.t -> (unit -> 'a) -> ('a, error) result
(** Run a parsing thunk, mapping lexer and parser exceptions (including
    [Stack_overflow]) to this module's {!error} exactly as the built-in
    entry points do. *)

val emit_doc : Telemetry.sink -> options -> bytes:int -> nodes:int -> unit
(** Emit the per-document success telemetry described at {!parse}. *)

val emit_error : Telemetry.sink -> error -> unit
(** Emit the per-document error counter described at {!parse}. *)
