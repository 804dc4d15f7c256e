(** Per-domain counters for the hash-consed type kernel.

    {!Types} (interning) and {!Subtype} (memoized decisions) keep their
    tables domain-local — no cross-domain locking on the hot path — so their
    statistics are domain-local too. A [counter] is a name; each domain
    that touches it gets a private cell, and {!totals} sums the cells of
    every domain that ever ran, grouped by name. The counters feed the
    [kernel.*] entries of [--stats-json] via {!Core.Telemetry}. *)

type counter

val counter : string -> counter
(** Declare a named counter (module-initialization time). Cheap: the
    per-domain cell is only allocated on the domain's first {!hit}. *)

val hit : counter -> unit
(** Increment this domain's cell by one. Lock-free after first touch. *)

val add : counter -> int -> unit
(** Increment this domain's cell by [n]. *)

val totals : unit -> (string * int) list
(** Sum of every domain's cells, grouped by counter name, sorted by name.
    Only counters that were actually touched appear. *)
