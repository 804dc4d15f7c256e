(** Document shapes over {!Lexer.skim}, shared by the streaming engines.

    The records of a corpus repeat their shape — the premise of Fad.js's
    type-aware parsing. A document's {e shape} is one code per value or
    bracket plus its field names in document order. Codes: ['n'] null,
    ['b'] boolean, ['i'] integer, ['f'] float (['g'] an integral float,
    when the walk tells them apart), ['s'] string, ['['] [']'] array
    brackets, ['{'] ['}'] record braces, and ['x'] for a subtree the
    walker stepped over without recording it. A record member is its key
    (the next entry of the key list) followed by its value's codes.

    A per-shard {!t} interns field names (both spellings of a key, raw and
    escaped, become one {!key} entry with one string instance), records the
    current document's shape, and caches whatever the caller keeps per
    shape: a hit count for inference, which adds the shape itself to its
    accumulator when the entry leaves (see [drop] at {!create}), and a
    verdict for validation. Not thread-safe — one per domain.

    The walks read their tokens through the tree parser's
    {!Parser.cursor} and run its node, byte and depth checks and its
    grammar errors, in the order {!Parser.read} runs them, so a walk that
    succeeds has accepted exactly what the tree parser accepts. The two
    recording walks (the inference typer's and the validator's shape pass)
    read member keys through {!first_key} and {!next_key}, which count a
    key read by prediction as the skim counts it. Their failures are the
    parser's and the lexer's; run a walk under {!Parser.run}. *)

type 'a t

type shape = { codes : string; ncodes : int; keys : string array; nkeys : int }
(** A recorded shape, read in place: the codes are the first [ncodes] bytes
    of [codes] and the field names, interned and in document order, the
    first [nkeys] of [keys]. Read-only. *)

val create : ?drop:(shape -> 'a -> unit) -> unit -> 'a t
(** [drop] (default: do nothing) is called on every remembered value as it
    leaves the cache, with the shape it was remembered for: at the
    wholesale reset, at the switch-off and at {!clear}. A value whose owner
    counts uses on it (a hit count) can settle them there, from the shape
    itself, before the entry is gone. *)

(** {1 The bounded cache} *)

val warmup : int
(** 1024: after this many documents the cache switches itself off for the
    rest of the shard as soon as misses outnumber hits. The cache is also
    emptied wholesale whenever it holds 4096 entries. *)

val dup_context : Parser.dup_policy -> int
(** A distinct context in [0 .. 3] per duplicate-key policy, which decides
    the members a shape with repeated keys resolves to. *)

val find : 'a t -> ctx:int -> 'a option
(** The value cached for the recorded shape under context [ctx], confirmed
    by comparing the whole shape (codes byte by byte, keys by pointer),
    never the hash alone. A hit bumps {!hits}. *)

val add : 'a t -> ctx:int -> 'a -> unit
(** Count a miss and, while {!caching}, remember the value for the
    recorded shape under [ctx]; may switch the cache off (see {!warmup}). *)

val caching : 'a t -> bool
val hits : 'a t -> int
val misses : 'a t -> int

val reuse : 'a t -> int
(** Field-name occurrences found already interned: every key occurrence
    after its first, whether it was skimmed or predicted. *)

val content_hash : string -> int -> int -> int
(** [content_hash s i stop]: the intern table's hash (FNV-1a, positive) of
    the bytes [s.[i .. stop - 1]]. *)

(** {1 Interned keys} *)

type key
(** An intern entry: a field name, its {!content_hash}, whether it is
    plain (no ['"'], no ['\\'] and no byte below 0x20, so its raw spelling
    is its contents; decided once, when it is interned), and its
    predictions: the two plain keys that last followed it inside an
    object, and the two that last opened an object that was its value.
    Entries and their predictions outlive documents, {!clear} and the
    intern table's growth. *)

val key_name : key -> string
(** The one string instance of the name; equal names are [==]. *)

val key_hash : key -> int
(** The {!content_hash} of the name. *)

val root : 'a t -> key
(** The parent of a document's root value and of an array element with no
    member key above it: its first-key predictions are those of the
    objects found there. Not in the intern table. *)

val closed : key
(** What {!first_key} answers for an empty object. *)

val clear : 'a t -> unit
(** Forget every entry (each through [drop]), reset the counters and switch
    the cache back on; the intern table stays. *)

(** {1 Reading a recorded shape back} *)

val recorded : 'a t -> shape
(** The current document's shape, a view of the recording buffer: valid
    until the next {!restart}. *)

(** {1 Walking one document}

    A walk reads one document on a {!Parser.cursor}. The cursor holds no
    shape buffer; the recording functions take the buffer as an argument,
    so a buffer keeps the shape it recorded while another walk reads the
    same document (the validator's walk after a cache miss). *)

val restart : ?integral:bool -> 'a t -> unit
(** Clear the recorded shape, before recording the next document's. With
    [integral] (default [false]), that document's floats are recorded as
    ['g'] when [Float.is_integer] holds of their value. *)

val push_code : 'a t -> char -> unit

val first_key : 'a t -> Parser.cursor -> key -> key
(** Just past an object's ['{'], read its first member's key and colon,
    record the key and return its entry, or {!closed} if ['}'] ends the
    object. The argument is the parent: the key whose value the object
    is (or {!root}). While {!caching}, the parent's first-key predictions
    are tried first with {!Lexer.skim_key}; a match counts one token for
    the key, one for a colon right after it and one {!reuse}, as the skim
    would. Otherwise the key is skimmed and interned, and becomes the
    parent's first prediction if it is plain. Errors are the skim's:
    ["expected a field name"], ["expected ':'"], a lexer error. *)

val next_key : 'a t -> Parser.cursor -> key -> key
(** {!first_key} for a member after a [','], predicted from the previous
    member's key (the argument), where ['}'] is an error. *)

val record : 'a t -> Parser.cursor -> key -> int -> unit
(** Read and record one value at the given depth, every token counted. The
    key is its parent: the member key whose value it is, or {!root}; an
    array passes its parent on to its elements. *)

val record_tok : 'a t -> Parser.cursor -> key -> Lexer.skim_tok -> int -> unit
(** {!record} for a value whose first token is already read, counted and
    budget-checked. *)

val skip : Parser.cursor -> int -> unit
(** Check one value at the given depth exactly as {!record} would, but
    record nothing and count none of its tokens; its bytes, from the
    current offset to its end, go to the cursor's [skipped]. *)

val skip_tok : Parser.cursor -> Lexer.skim_tok -> int -> unit
(** {!skip} for a value whose first token is already read (and not
    counted): the depth, node and byte checks run here, and [skipped]
    counts from the end of that token. *)
