(** Polyhedral-style memory access vectors (paper §5.2, Equation 1).

    The access pattern of an array reference R inside a loop nest is
    [r = Q·i + O] where [i] is the iteration vector (outermost index
    first), [Q] the m×n memory access matrix and [O] the offset
    vector.  The layout optimizer transforms Q and O; alignment and
    adjacency tests consume the row-major linearisation. *)

open Slp_ir

type t = {
  base : string;  (** Array name. *)
  q : int array array;  (** m×n access matrix, row = array dimension. *)
  offset : int array;  (** m-vector O. *)
  nest : string list;  (** Index variables, outermost first. *)
}

val of_operand : nest:string list -> Operand.t -> t option
(** [None] for scalars/constants, or when a subscript mentions a
    variable outside [nest]. *)

val rank : t -> int
(** Number of array dimensions m. *)

val depth : t -> int
(** Loop nest depth n. *)

val linearise : dims:int list -> t -> int array * int
(** Row-major linearisation: coefficients per nest variable plus the
    constant offset, in elements.  Raises [Invalid_argument] when the
    rank does not match [dims]. *)

val innermost_coeff : dims:int list -> t -> int
(** Linearised coefficient of the innermost loop index — the access
    stride in the innermost loop (0 when loop-invariant). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
