(** Exact pack selection (goSLP-style), the sixth scheme and the test
    oracle for every heuristic.

    Pack selection is formulated as 0-1 optimisation — one binary
    variable per legal pack, partition/independence/lane-budget
    conflict constraints, objective from {!Cost} — and solved exactly
    by the branch-and-bound core in {!Slp_util.Bnb}: canonical
    enumeration of set partitions, admissible per-element lower
    bounds, and a relaxation memoised on the uncovered-set signature.
    The search is metered by {!Slp_util.Slp_error.Fuel}; on blowup it
    bails to the holistic heuristic under [BAIL15-optimal] instead of
    hanging. *)

open Slp_ir

val default_solver_steps : int
(** Per-block node/extension budget of the exact search. *)

type stats = {
  nodes : int;
  leaves : int;
  memo_hits : int;
  bound_cuts : int;  (** Subtrees cut by the bound. *)
  infeasible : int;  (** Packs rejected because contracting them closes a cycle. *)
  improvements : int;  (** Leaves that beat the incumbent. *)
  proven : bool;  (** Search completed: the result is the exact optimum. *)
  bailed : bool;
      (** Fuel ran out: the result is the best of the incumbents the
          search started from (the heuristic's plan and the seeds);
          partitions the search itself found, even cheaper ones, are
          discarded. *)
}

type bail = { label : string; budget : int; error : Slp_util.Slp_error.t }
(** Advisory record of a per-block solver bailout (the compile still
    succeeds with the heuristic's plan). *)

type attempt = {
  a_grouping : Grouping.result;
  a_schedule : Schedule.t;
  a_estimate : Cost.estimate;
}

val compatible :
  env:Env.t -> deps:(int * int) list -> Stmt.t -> Stmt.t -> bool
(** May the two statements share a pack: isomorphic, same element
    type, no dependence in either direction.  Lane budget and joint
    acyclicity are enforced separately. *)

val grouping_of_parts : int list list -> Grouping.result
(** A {!Grouping.result} from partition parts (statement-id lists):
    parts of two or more become groups, the rest singles. *)

val evaluate :
  ?params:Cost.params ->
  query:Cost.query ->
  deps:(int * int) list ->
  config:Config.t ->
  Block.t ->
  Grouping.result ->
  attempt option
(** The shared objective evaluator: schedule the partition with
    {!Schedule.run} and price it with {!Cost.estimate}.  [None] when
    the partition admits no dependence-respecting schedule. *)

val modeled_cost : ?params:Cost.params -> Driver.program_plan -> float
(** Scheme-fair total: committed blocks at their estimated vector
    cost, all other blocks at the exact scalar cost of their
    statements — comparable across schemes because the scalar
    fallback is priced identically everywhere. *)

val enumerate_partitions :
  env:Env.t ->
  config:Config.t ->
  deps:(int * int) list ->
  Block.t ->
  int list list list
(** Every partition of the block into legal packs and singles (as
    statement-id part lists).  Exponential — test use only, on blocks
    of at most a handful of statements. *)

val plan_block :
  ?obs:Slp_obs.Obs.t ->
  ?params:Cost.params ->
  ?seeds:Schedule.t list ->
  ?solver_steps:int ->
  ?grouping_fuel:Slp_util.Slp_error.Fuel.t ->
  ?schedule_fuel:Slp_util.Slp_error.Fuel.t ->
  env:Env.t ->
  config:Config.t ->
  query:Cost.query ->
  Driver.site ->
  Driver.block_plan * bail option * stats
(** Exactly optimise one block under its site's pairs (the pipeline
    hands it precise {!Driver.sites}).  The heuristic, the seeds and
    every leaf are scheduled and priced on the site's facts.  [seeds]
    are committed schedules from other schemes; they participate as
    incumbents, so the result is never worse than any seed on the
    modeled cost — the dominance guarantee the differential tests rely
    on.  [obs]
    collects the [OPT-BAIL], [OPT-IMPROVE] or [OPT-MATCH] remark; the
    holistic heuristic run inside stays silent. *)
