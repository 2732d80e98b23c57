(** Expression trees of the kernel IR.

    Isomorphism of statements (paper §2, §4.1 constraint 3: "the same
    operations in the same order") is structural equality of the
    operator skeleton, ignoring the operands at the leaves. *)

type t =
  | Leaf of Operand.t
  | Un of Types.unop * t
  | Bin of Types.binop * t * t

val leaves : t -> Operand.t list
(** Leaf operands in left-to-right order — the "positions" from which
    variable packs are drawn. *)

val map_leaves : (Operand.t -> Operand.t) -> t -> t

val same_shape : t -> t -> bool
(** Structural operator skeleton equality. *)

val replace_leaves : t -> Operand.t list -> t
(** Rebuild the tree with new leaves (left-to-right).  Raises
    [Invalid_argument] when the count does not match. *)

val op_count : t -> int
(** Number of operator nodes — the arithmetic work of a statement. *)

val operators : t -> (Types.binop, Types.unop) Either.t list
(** Operator nodes in evaluation order (left-to-right, bottom-up) —
    used for weighted arithmetic cost (divisions and square roots are
    an order of magnitude slower than additions on real datapaths). *)

val depth : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val eval : t -> (Operand.t -> float) -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Infix construction helpers for tests and examples:
    [Infix.(sc "a" * arr "B" [idx] + cst 1.0)]. *)
module Infix : sig
  val cst : float -> t
  val sc : string -> t
  val arr : string -> Affine.t list -> t
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val neg : t -> t
  val sqrt_ : t -> t
  val i : string -> Affine.t
  (** Loop-index variable as an affine subscript. *)

  val ( @+ ) : Affine.t -> int -> Affine.t
  val ( @* ) : int -> Affine.t -> Affine.t
end
