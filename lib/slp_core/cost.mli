(** The SLP profitability gate (paper §4.3, after Larsen's cost model).

    Estimates the cost of a basic block executed scalar versus under a
    proposed schedule, counting SIMD instructions, memory operations
    and vector register reshuffling/permutation instructions.  "If we
    realize that our transformation could potentially degrade the
    performance, we choose not to apply it" — the driver consults
    [profitable] per block. *)

open Slp_ir

type params = {
  scalar_op : float;
  vector_op : float;
  divide : float;  (** A division (scalar or vector — both slow). *)
  square_root : float;
  scalar_load : float;
  scalar_store : float;
  vector_load : float;
  vector_store : float;
  unaligned_extra : float;  (** Surcharge on an unaligned vector memory op. *)
  insert : float;  (** Move one scalar/element into a vector lane. *)
  extract : float;
  permute : float;
  broadcast : float;  (** Splat one value to every lane. *)
}

val default_params : params
(** SSE2-flavoured relative costs. *)

type query = {
  contiguous : Operand.t list -> bool;
      (** Ordered operands occupy consecutive memory, first to last
          (arrays by subscripts; scalars according to the active data
          layout). *)
  aligned : Operand.t list -> bool;
      (** The first operand sits on a vector boundary in every
          iteration. *)
  scalar_live_out : string -> bool;
      (** Scalar needs its architectural value after the block. *)
}

val default_query : env:Env.t -> nest:string list -> lanes:int -> query
(** Array contiguity/alignment from {!Slp_analysis.Alignment}; scalars
    never contiguous (no layout optimization); every scalar live-out. *)

type estimate = {
  scalar_cost : float;
  vector_cost : float;
  vector_ops : int;
  vector_memops : int;
  scalar_memops_in_packs : int;
  inserts : int;
  extracts : int;
  permutes : int;
}

val estimate :
  ?params:params -> query:query -> Block.t -> Schedule.t -> estimate
(** Builds the block's {!Schedule.Facts} and runs {!estimate_facts}. *)

val estimate_facts :
  ?params:params -> query:query -> Schedule.Facts.t -> Schedule.t -> estimate
(** {!estimate} on facts the caller already holds. *)

val weighted_ops : params -> base:float -> Expr.t -> float
(** Sum of per-operator weights of an expression, with [base] for the
    ordinary operators (divisions and square roots keep their own
    weights).  Exposed for the exact solver's admissible bounds. *)

val scalar_stmt_cost : params -> Stmt.t -> float
(** Exact cost of one statement executed scalar: weighted operators
    plus element loads and the store (when the target is an array
    element). *)

val profitable : ?params:params -> query:query -> Block.t -> Schedule.t -> bool
(** [vector_cost < scalar_cost]; equality counts as unprofitable (a
    transformation must pay for its risk). *)
