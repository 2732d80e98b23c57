(** Block-level clean-up passes: constant folding and (optional)
    dead-statement elimination.

    These are the "other low-level optimizations" of the paper's
    post-processing module; they also keep synthetic benchmark kernels
    honest by removing trivially-dead work before any scheme is
    measured. *)

open Slp_ir

val fold_expr : Expr.t -> Expr.t
(** Bottom-up constant folding ([1*x -> x], [x+0 -> x], const·const
    evaluated).  Folding never changes evaluation results. *)

val fold_program : Program.t -> Program.t

val dce_block : live_out:(string -> bool) -> Block.t -> Block.t
(** Remove statements that define a scalar that is neither read later
    in the block (before being overwritten) nor [live_out].  Array
    stores are never removed. *)
