(** The holistic SLP optimizer driver (paper §3, §4): grouping, then
    scheduling, then the profitability gate, per basic block.

    Blocks where no groups form or where the cost model predicts a
    slowdown keep their scalar schedule ("we skip the current basic
    block and move on to the next one"). *)

open Slp_ir

type block_plan = {
  block : Block.t;
  nest : string list;  (** Enclosing loop indices, outermost first. *)
  deps : (int * int) list;
      (** The statement dependence pairs the plan was built and
          validated against — precise solver pairs when the plan came
          from {!optimize_program}, syntactic [Block.dep_pairs]
          otherwise. *)
  grouping : Grouping.result;
  schedule : Schedule.t option;  (** [None]: block stays scalar. *)
  estimate : Cost.estimate option;
}

val blocks_with_nest : Program.t -> (Block.t * string list) list
(** All basic blocks in traversal (program) order with their enclosing
    loop nests. *)

val optimize_block :
  ?obs:Slp_obs.Obs.t ->
  ?options:Grouping.options ->
  ?schedule_options:Schedule.options ->
  ?grouping_fuel:Slp_util.Slp_error.Fuel.t ->
  ?schedule_fuel:Slp_util.Slp_error.Fuel.t ->
  ?params:Cost.params ->
  ?deps:(int * int) list ->
  env:Env.t ->
  config:Config.t ->
  query:Cost.query ->
  nest:string list ->
  Block.t ->
  block_plan
(** The optional fuels bound the grouping decision loop and the
    scheduling emission loop; exhaustion raises
    {!Slp_util.Slp_error.Error} with code [Fuel_exhausted] so the
    resilient pipeline can degrade the kernel to scalar instead of
    spinning.  [obs] wraps grouping/scheduling/estimation in trace
    spans and collects the cost-gate remarks ([COST-VECTORIZE],
    [COST-REJECT], [COST-RETRY-NOSCATTER]) alongside the per-pass
    remarks of {!Grouping.run} and {!Schedule.run}. *)

type program_plan = { program : Program.t; plans : block_plan list }
(** [plans] follows {!blocks_with_nest} order. *)

val optimize_program :
  ?obs:Slp_obs.Obs.t ->
  ?options:Grouping.options ->
  ?schedule_options:Schedule.options ->
  ?grouping_fuel:Slp_util.Slp_error.Fuel.t ->
  ?schedule_fuel:Slp_util.Slp_error.Fuel.t ->
  ?params:Cost.params ->
  ?query_of:(nest:string list -> Block.t -> Cost.query) ->
  config:Config.t ->
  Program.t ->
  program_plan
(** Default [query_of] is {!Cost.default_query} with f64 lane count
    derived from the datapath (conservative for narrower types). *)

val superword_statement_count : program_plan -> int
