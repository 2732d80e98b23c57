(** Alignment analysis (part of the paper's pre-processing, §3).

    A vector load/store of [lanes] elements is cheap when the first
    element's address is a multiple of the vector width for *every*
    iteration of the enclosing nest.  A reference's row-major address
    is [Σ c_j·i_j + r] over the nest variables [i_j], each [c_j] summed
    over all subscripts; the verdict is constant in every iteration
    exactly when every [c_j] is divisible by [lanes] (element-sized
    units; bases are assumed vector-aligned). *)

open Slp_ir

type verdict =
  | Aligned  (** Provably aligned in every iteration. *)
  | Misaligned of int
      (** Provably at constant misalignment [k] (in elements, 0 < k <
          lanes) in every iteration. *)
  | Unknown  (** Alignment varies with the iteration vector. *)

val of_operand :
  env:Env.t -> nest:string list -> lanes:int -> Operand.t -> verdict option
(** The verdict for an array reference whose subscripts name only
    variables of [nest]; [None] for constants, scalars and references
    outside [nest].  Fails with code [Internal] when the reference's
    rank differs from its array's. *)

val contiguous_pack :
  env:Env.t -> Operand.t list -> bool
(** True when the operands are array elements of one array at
    consecutive row-major locations, first to last — one vector
    load/store can fetch the whole pack. *)

val pp_verdict : Format.formatter -> verdict -> unit
