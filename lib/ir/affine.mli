(** Affine expressions over loop-index variables.

    Array subscripts and loop bounds in the kernel language are affine
    functions of the enclosing loop indices (paper §5.2: "we focus on
    loop nests in which the loop bounds and array references are affine
    functions of the enclosing loop indices").  An affine expression is
    a sum [c + Σ k_v · v] kept in a canonical form: terms sorted by
    variable name, no zero coefficients.  Equal expressions are
    structurally equal, so polymorphic [=] agrees with {!equal}. *)

type t

val const : int -> t
val var : ?coeff:int -> string -> t
val make : (string * int) list -> int -> t
(** [make terms const]; duplicate variables are summed. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val neg : t -> t

val terms : t -> (string * int) list
(** Canonical (sorted, non-zero) coefficient list. *)

val length : t -> int
(** Number of terms. *)

val var_at : t -> int -> string
val coeff_at : t -> int -> int
(** The variable and coefficient of the [i]-th term of {!terms}
    ([0 <= i < length]), read without building the list. *)

val const_part : t -> int
val coeff : t -> string -> int
(** 0 when the variable does not occur. *)

val to_const : t -> int option
val vars : t -> string list
val equal : t -> t -> bool

val compare : t -> t -> int
(** The constant first, then the terms in variable order, each by
    variable ([String.compare]) then coefficient; of two expressions
    whose terms agree up to the shorter one's end, the shorter comes
    first.  [equal], [compare] and {!diff_const} allocate nothing
    beyond [diff_const]'s result. *)

val subst : t -> string -> t -> t
(** [subst e v by] replaces every occurrence of [v] with the affine
    expression [by] (used by loop unrolling: [i := u·i' + k]). *)

val eval : t -> (string -> int) -> int
(** Evaluate under an environment for the index variables.  Raises
    whatever the environment raises on unbound variables. *)

val diff_const : t -> t -> int option
(** [diff_const a b] is [Some d] when [a - b] is the constant [d] —
    the dependence test and the memory-adjacency test both reduce to
    this question.  That is exactly when the two have the same terms. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
