(** Small dense matrices over exact rationals.

    The array reference layout optimizer (paper §5.2) manipulates
    memory access matrices [Q] of size m×n: it needs matrix products
    (Q1 = M·Q), inverses of the truncated access matrix Q1' (Equation
    7), and solving Ldefault·M = Lopt (Equation 2).  Matrices here are
    immutable; rows are the first index. *)

type t

val make : int -> int -> (int -> int -> Rat.t) -> t
(** [make rows cols f] builds the matrix with entry [f i j]. *)

val of_int_array : int array array -> t
(** Rows must be non-empty and rectangular; raises [Invalid_argument]
    otherwise. *)

val rows : t -> int
val get : t -> int -> int -> Rat.t
val identity : int -> t
val mul : t -> t -> t
(** Raises [Invalid_argument] on dimension mismatch. *)

val mul_vec : t -> Rat.t array -> Rat.t array
val equal : t -> t -> bool

val inverse : t -> t option
(** Gauss-Jordan inverse; [None] when singular or non-square. *)

val determinant : t -> Rat.t
(** Raises [Invalid_argument] when non-square. *)

val solve : t -> Rat.t array -> Rat.t array option
(** [solve a b] returns [x] with [a·x = b] for square nonsingular [a]. *)

val drop_last_row_col : t -> t
(** Remove the last row and last column (Equation 6's truncation).
    Raises [Invalid_argument] on matrices smaller than 2×2. *)

val row : t -> int -> Rat.t array
val col : t -> int -> Rat.t array
val pp : Format.formatter -> t -> unit
