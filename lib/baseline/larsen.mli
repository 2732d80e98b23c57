(** The Larsen & Amarasinghe SLP algorithm (PLDI 2000) — the paper's
    comparison baseline ("SLP" in the evaluation).

    Seeds: isomorphic independent statement pairs with adjacent memory
    references, committed greedily in program order.  Extension:
    def-use and use-def chains from committed packs.  Combination:
    adjacent packs merge until the datapath is filled.  Scheduling:
    dependence-respecting program order with lanes fixed by memory
    address — no global reuse analysis and no reuse-driven reordering,
    which is precisely what the holistic framework improves on. *)

open Slp_ir

val group :
  dep_pairs:(int * int) list ->
  env:Env.t ->
  config:Slp_core.Config.t ->
  Block.t ->
  Slp_core.Grouping.result
(** The packs found under the statement dependence pairs [dep_pairs]
    (the pipeline passes a syntactic {!Slp_core.Driver.site}'s):
    ordered member lists recorded as groups, plus leftover singles.
    [decisions] counts committed pairs/merges. *)

val schedule :
  config:Slp_core.Config.t ->
  Slp_core.Schedule.Facts.t ->
  Slp_core.Grouping.result ->
  Slp_core.Schedule.t
(** Program-order topological emission over the group DAG of the
    facts' dependence pairs; lane order as committed (the group member
    lists are already ordered by address).  The reuse statistics come
    from {!Slp_core.Schedule.analyze} on the same facts.  Both
    baselines schedule this way, and the pipeline prices the result
    with {!Slp_core.Driver.gate}, the same profitability gate as the
    holistic optimizer, on the site's facts. *)
