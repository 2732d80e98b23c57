(** Operands: the leaves of kernel IR expressions.

    A superword is an ordered tuple of operands; a variable pack (paper
    §4.2.1) is an unordered set of operands drawn from the same
    position of grouped isomorphic statements.  The aliasing and
    adjacency questions answered here drive both dependence testing and
    pack-cost estimation. *)

type t =
  | Const of float
      (** Literal constant; packs via broadcast/insert, never aliases. *)
  | Scalar of string  (** A scalar variable. *)
  | Elem of string * Affine.t list
      (** Array element [base[idx_0]...[idx_n-1]], one affine subscript
          per dimension. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val may_alias : t -> t -> bool
(** Conservative storage-overlap test within one loop iteration:
    scalars alias when equal; array elements alias unless the bases
    differ or some subscript dimension provably differs by a non-zero
    constant; constants never alias. *)

val adjacent_in_memory : row_size:(string -> int list) -> t -> t -> bool
(** [adjacent_in_memory ~row_size a b] is true when [b] is the element
    immediately after [a] in row-major order — the seed condition of
    the Larsen-Amarasinghe baseline.  [row_size] gives an array's
    dimension sizes. *)

val used_vars : t -> string list
(** Index variables and scalar variables read when this operand is
    evaluated (subscript variables count as uses). *)

val subst_index : t -> string -> Affine.t -> t
(** Substitute a loop-index variable inside subscripts (unrolling). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
