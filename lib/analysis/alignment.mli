(** Alignment analysis (part of the paper's pre-processing, §3).

    A vector load/store of [lanes] elements is cheap when the first
    element's address is a multiple of the vector width for *every*
    iteration of the enclosing nest.  With a linearised access
    [Σ c_j·i_j + r] that holds exactly when every [c_j] is divisible by
    [lanes] and [r mod lanes = 0] (element-sized units; bases are
    assumed vector-aligned). *)

open Slp_ir

type verdict =
  | Aligned  (** Provably aligned in every iteration. *)
  | Misaligned of int
      (** Provably at constant misalignment [k] (in elements, 0 < k <
          lanes) in every iteration. *)
  | Unknown  (** Alignment varies with the iteration vector. *)

val of_access : lanes:int -> dims:int list -> Access.t -> verdict

val of_operand :
  env:Env.t -> nest:string list -> lanes:int -> Operand.t -> verdict option
(** [None] for non-memory operands or references outside [nest]. *)

val contiguous_pack :
  env:Env.t -> Operand.t list -> bool
(** True when the operands are array elements of one array at
    consecutive row-major locations, first to last — one vector
    load/store can fetch the whole pack. *)

val pp_verdict : Format.formatter -> verdict -> unit
