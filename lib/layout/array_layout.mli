(** Data layout optimization for array reference superwords (paper
    §5.2).

    A read-only, intra-array source pack whose lanes access
    [A[a·i + b_k]] in the innermost loop is mapped/replicated onto a
    fresh array [R] holding the accessed elements in an interleaved
    strided layout — lane [k] of iteration [t] at [R[L·t + k]]
    (Figure 14, Equation 4) — so the pack becomes one aligned vector
    load.  Replication is legal only for read-only references and may
    duplicate data, so "the benefit … has to outweigh the cost".

    One rule, {!decide}, makes that call for an ordered pack and the
    loops around its block.  {!apply} acts on it for every source pack
    of a committed plan, and {!gate_query} prices the packs it would
    replicate during planning, so the Global+Layout cost gate never
    counts on a replica that {!apply} then refuses.

    This is the one §5.2 mapping the compiler implements: Equation 4
    in the innermost loop, with a preserved leading dimension for
    rank-2 sources.  The spatial transformation and the
    multi-dimensional mappings (Equations 2-3 and 5-8) are not
    implemented. *)

type replica = {
  source : string;
  name : string;
  lanes : int;
  stride : int;  (** Original innermost stride [a]. *)
  lane_offsets : int list;  (** [b_k] per lane. *)
  loop_index : string;
  lo : int;
  hi : int;
  step : int;
  coeff : int;  (** Rewritten stride [c = lanes / step]. *)
  size : int;  (** Elements of the strided dimension. *)
  outer_dim : int option;
      (** Rank-2 sources: size of the preserved leading dimension. *)
  outer_sub : Slp_ir.Affine.t option;
      (** Rank-2 sources: the lane-invariant leading subscript. *)
}

type result = {
  plan : Slp_core.Driver.program_plan;  (** Rewritten program and plans. *)
  setup : Slp_vm.Visa.item list;  (** Replication loops, run once. *)
  replicas : replica list;
}

type decision =
  | Keep
      (** Not a pack this rule maps: fewer than two lanes, not every
          lane reading [A[a·i + b_k]] (or [A[f][a·i + b_k]] with one
          leading subscript [f] free of [i]) of one read-only array of
          that rank with one stride [a <> 0], already a contiguous
          ascending unit-stride pack, or a loop over [i] without
          constant bounds or whose step does not divide the lanes. *)
  | Skip of { source : string; elems : int; repeat : int }
      (** Mappable, but the replica would hold more than 4M elements
          or the copy does not amortise over [repeat] re-runs of the
          loop. *)
  | Replicate of replica
      (** The replica to build, unnamed ([name] is [""]); {!apply}
          names replicas in creation order. *)

val decide :
  env:Slp_ir.Env.t ->
  written:(string -> bool) ->
  loops:Slp_ir.Program.loop list ->
  Slp_ir.Operand.t list ->
  decision
(** The replication rule for one ordered source pack.  [loops] are
    the loops around the pack's block, innermost first; [written]
    holds for the arrays the program stores to.  The repeat factor is
    the product of the trip counts of the enclosing loops but the
    innermost (1 for an unknown trip count), leaving out the loops
    whose index feeds a rank-2 pack's leading subscript: those select
    a different replica row each iteration. *)

val amortizes : lanes:int -> repeat:int -> bool
(** The replication profitability rule: copying costs roughly a cold
    miss per element once, each re-run of the loop saves a gather
    minus a vector load per iteration. *)

val gate_query :
  Slp_ir.Program.t ->
  (Slp_core.Driver.site -> Slp_core.Cost.query) ->
  Slp_core.Driver.site ->
  Slp_core.Cost.query
(** [gate_query prog base]: the Global+Layout cost gate's query, which
    anticipates stage 2.  A pack that {!decide} would replicate, asked
    in its own lane order, is contiguous, and also aligned when [base]
    does not find it contiguous; every other answer is [base]'s. *)

val apply : ?obs:Slp_obs.Obs.t -> Slp_core.Driver.program_plan -> result
(** Replicates every source pack of every committed superword that
    {!decide} answers [Replicate] for, sharing one replica between
    packs with the same source, stride, offsets and loop.  [obs]
    collects a [LAYOUT-REPLICATE] remark per replica created and a
    [LAYOUT-SKIP-SIZE] remark per [Skip]. *)
