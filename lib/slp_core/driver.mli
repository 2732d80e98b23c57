(** The holistic SLP optimizer driver (paper §3, §4): grouping, then
    scheduling, then the profitability gate, per basic block.

    Every scheme plans the same way: {!sites} lists the blocks with
    their loop nests and dependence pairs, a grouper proposes groups
    for each site, and {!gate} schedules, validates and prices them.
    Blocks where no groups form or where the cost model predicts a
    slowdown keep their scalar schedule ("we skip the current basic
    block and move on to the next one"). *)

open Slp_ir

type site = {
  block : Block.t;
  nest : string list;  (** Enclosing loop indices, outermost first. *)
  deps : (int * int) list;
      (** The statement dependence pairs every pass planning this
          block reads: grouping, scheduling, the validity check and
          the verifier. *)
  facts : Schedule.Facts.t Lazy.t;
      (** The block's facts under [deps], built on first use and
          shared by every schedule, validity check and estimate made
          for the site: a gate and its retry, the exact solver's
          heuristic, seeds and leaves, and a second planning under
          another cost query.  Not for use from two domains at once. *)
}
(** One basic block as the planners see it. *)

type block_plan = {
  block : Block.t;
  nest : string list;
  deps : (int * int) list;
      (** The pairs of the {!site} the plan was built and validated
          against. *)
  grouping : Grouping.result;
  schedule : Schedule.t option;  (** [None]: block stays scalar. *)
  estimate : Cost.estimate option;
}

val sites : precise:bool -> Program.t -> site list
(** Every basic block in traversal (program) order, with its nest and
    its pairs: the precise pairs of {!Slp_depend.Depend.block_dep_pairs}
    under [precise], the syntactic [Block.dep_pairs] otherwise.  The
    holistic schemes plan precise sites; Native and SLP plan syntactic
    ones.  Two calls on one program list the same blocks in the same
    order. *)

val gate :
  ?obs:Slp_obs.Obs.t ->
  ?params:Cost.params ->
  query:Cost.query ->
  schedule:(Schedule.Facts.t -> Grouping.result -> Schedule.t) ->
  site ->
  Grouping.result ->
  block_plan
(** The one profitability gate.  No groups give a scalar plan with no
    estimate.  Otherwise [schedule] orders the groups, the schedule is
    checked against the site's pairs (an invalid one raises
    {!Slp_util.Slp_error.Error} with code [Schedule_failed], pass
    [Scheduling]), and it is priced, all on the site's facts; the
    plan commits the schedule iff the vector cost is below the scalar
    cost.  [obs] wraps scheduling
    and pricing in [schedule:]/[estimate:] spans and collects the
    [COST-VECTORIZE] or [COST-REJECT] remark. *)

val optimize_block :
  ?obs:Slp_obs.Obs.t ->
  ?options:Grouping.options ->
  ?schedule_options:Schedule.options ->
  ?grouping_fuel:Slp_util.Slp_error.Fuel.t ->
  ?schedule_fuel:Slp_util.Slp_error.Fuel.t ->
  ?params:Cost.params ->
  env:Env.t ->
  config:Config.t ->
  query:Cost.query ->
  site ->
  block_plan
(** The holistic heuristic: {!Grouping.run} then {!Schedule.run_facts}
    under the {!gate}, with one retry without scattered-store
    candidates when the gate rejects the first grouping.  The optional
    fuels bound the grouping decision loop and the scheduling emission
    loop; exhaustion raises {!Slp_util.Slp_error.Error} with code
    [Fuel_exhausted] so the resilient pipeline can degrade the kernel
    to scalar instead of spinning.  [obs] wraps grouping in a
    [grouping:] span and collects the gate's remarks and
    [COST-RETRY-NOSCATTER] alongside the per-pass remarks of
    {!Grouping.run} and {!Schedule.run_facts}. *)

type program_plan = { program : Program.t; plans : block_plan list }
(** [plans] follows {!sites} order. *)

val superword_statement_count : program_plan -> int
