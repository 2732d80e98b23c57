(** Variable packs: unordered multisets of operands.

    "A variable pack refers to a set of variables coming from the same
    position of different isomorphic statements in a candidate group"
    (paper §4.2.1).  Packs are unordered during grouping — the lane
    order is fixed only by the scheduling phase — so the canonical
    representation is a sorted operand list.  A pack whose data are
    used by more than one superword statement is a *reuse*, even when
    the orderings differ (a permutation still beats a memory access). *)

open Slp_ir

type t = private Operand.t list
(** Sorted; duplicates allowed (two lanes may carry the same value). *)

val of_operands : Operand.t list -> t
val union : t -> t -> t
(** Multiset union — merging packs during iterative grouping. *)

val size : t -> int
val operands : t -> Operand.t list
val equal : t -> t -> bool
val compare : t -> t -> int

val all_constant : t -> bool
(** Constant-only packs are vector immediates: they cost nothing to
    rebuild, so they never count as reuses. *)

val mem : Operand.t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
