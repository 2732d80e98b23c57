(** Statement grouping — the first phase of superword statement
    generation (paper §4.2): the basic grouping algorithm's decision
    loop (step 4) plus the iterative extension to wider groups
    (§4.2.2).

    Each round identifies candidates over the current units, builds the
    variable pack conflicting graph, weighs every candidate by its
    global reuse benefit, and repeatedly commits the heaviest candidate
    (updating both graphs) until no candidates remain; decided groups
    then become the units of the next round, until the SIMD datapath is
    filled or no further grouping is possible. *)

open Slp_ir

type options = {
  recompute_weights : bool;
      (** Recompute edge weights after every decision (paper).  The
          cheap variant computes them once — ablation only. *)
  elimination : Groupgraph.elimination;
  exclude_scattered : bool;
      (** Drop scattered-store candidates from the candidate set —
          used by the driver's second attempt after a cost-gate
          rejection. *)
  scatter_penalty : float;
      (** Subtracted from the weight of candidates whose memory store
          target scatters: the forced unpack is unfixable and
          routinely outweighs a captured reuse.  Default 1.0; a
          documented deviation from the paper's reuse-only weight. *)
}

val default_options : options

type result = {
  groups : int list list;
      (** Statement-id member sets of each SIMD group (size >= 2),
          unordered (sorted ascending), in decision order. *)
  singles : int list;  (** Ungrouped statement ids, program order. *)
  rounds : int;  (** Rounds that made at least one decision. *)
  decisions : int;  (** Total pairwise grouping decisions. *)
}

val run :
  ?options:options ->
  ?fuel:Slp_util.Slp_error.Fuel.t ->
  ?obs:Slp_obs.Obs.t ->
  dep_pairs:(int * int) list ->
  env:Env.t ->
  config:Config.t ->
  Block.t ->
  result
(** [fuel] charges one step per grouping round and per
    elimination-loop iteration; when the budget is exhausted the run
    raises {!Slp_util.Slp_error.Error} with code [Fuel_exhausted] (the
    resilient pipeline's guard against candidate-graph blowup).
    [obs] collects one remark per merge decision ([GRP-MERGE]), per
    cycle-rejected merge ([GRP-REJECT-DEP]), and per batch of
    conflict-dropped candidates ([GRP-REJECT-CONFLICT]).
    [dep_pairs] are the statement dependence pairs the unit DAG is
    built from: the block's {!Driver.site} pairs, which are precise
    {!Slp_depend.Depend} pairs when the pipeline plans a holistic
    scheme.  Fewer pairs mean more statements qualify as mergeable. *)
