(** Cycle detection on dense directed graphs.

    The compiler's dependence graphs are dense: nodes numbered
    [0 .. n-1] with successor lists, as in the group DAGs of
    [Schedule.run_facts] and [Larsen.schedule] and the contracted unit
    DAG of [Units.Deps.merged_acyclic].  This is the check they share. *)

val acyclic : int list array -> bool
(** Kahn's algorithm on a dense directed graph given as the successor
    lists of nodes [0 .. n-1] (repeated edges allowed): true when the
    graph has no cycle. *)
