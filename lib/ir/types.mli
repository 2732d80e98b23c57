(** Scalar data types and operators of the kernel IR.

    The SLP framework packs operands of equal data type into
    superwords; the type's bit width determines how many lanes fit a
    given SIMD datapath (e.g. four [F32] in 128 bits, two [F64]). *)

type scalar_ty = I8 | I16 | I32 | I64 | F32 | F64

val bits : scalar_ty -> int
(** Width in bits: 8, 16, 32, 64, 32, 64 respectively. *)

val bytes : scalar_ty -> int
val scalar_ty_to_string : scalar_ty -> string
val scalar_ty_of_string : string -> scalar_ty option
val pp_scalar_ty : Format.formatter -> scalar_ty -> unit

type binop = Add | Sub | Mul | Div | Min | Max

type unop = Neg | Abs | Sqrt

val pp_binop : Format.formatter -> binop -> unit
val pp_unop : Format.formatter -> unop -> unit

val eval_binop : binop -> float -> float -> float
(** Runtime semantics used by both the scalar and vector interpreters.
    All lanes are computed in double precision; [Div] by zero yields
    IEEE infinity, matching hardware float lanes. *)

val eval_unop : unop -> float -> float
