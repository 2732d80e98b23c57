(** Flow-insensitive scalar liveness over whole programs.

    A scalar's architectural value must be materialised out of a
    vector register (paper: "unpacking") only when something beyond
    the defining block's vector dataflow reads it.  [demanded b v] is
    true when [v] is read in some other block or upward-exposed in [b]
    itself (its value crosses iterations of the enclosing loop).
    Used by both the cost model's gate and the code generator. *)

open Slp_ir

type t

val compute : Program.t -> t

val demanded : t -> Block.t -> string -> bool
val upward_exposed : t -> Block.t -> string -> bool

val observable_scalars : Program.t -> string list
(** The declared scalars whose final value a correct compilation must
    reproduce: those every defining block must materialise ([demanded]
    there), plus those no block writes.  A scalar a vector register
    carries to its last use may leave its slot unspecified, so the
    scalar-reference checks (the fuzz oracle and
    [Pipeline.execute ~check]) compare only these. *)
