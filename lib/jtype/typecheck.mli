(** Semantic membership for the type algebra.

    [member] is the denotational judgment v ∈ ⟦t⟧ — exact. It is the
    semantics {!Subtype} decides inclusion for. *)

val member : Json.Value.t -> Types.t -> bool

type mismatch = { at : Json.Pointer.t; expected : Types.t; got : Json.Value.t }

val check : Json.Value.t -> Types.t -> (unit, mismatch) result
(** Like {!member} but reports the first (leftmost-innermost) mismatch. *)

val string_of_mismatch : mismatch -> string
