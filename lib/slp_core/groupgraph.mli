(** The statement grouping graph SG and the auxiliary-graph weight
    computation — step 3 of the basic grouping algorithm (paper
    §4.2.1).

    Nodes are units, edges are candidate groups, and each edge weight
    estimates the average superword reuse the candidate would bring to
    the whole basic block: build an auxiliary graph of compatible
    same-pack VP nodes, greedily eliminate conflicts by removing
    highest-degree nodes, then average [(N_t - 1)] over the pack types
    of the decided groups plus the candidate. *)

type elimination = Max_degree | Arbitrary
(** Conflict-elimination order in the auxiliary graph.  [Max_degree]
    is the paper's greedy rule; [Arbitrary] (insertion order) exists
    for the ablation bench. *)

val weight : vp:Packgraph.t -> elimination:elimination -> cand:Candidate.t -> float
(** The candidate's estimated average superword reuse (the edge weight
    of SG), from its auxiliary graph on the owner quotient
    ({!Packgraph.select}).  Pack types and [N_t] count, with
    multiplicity, the packs of every group decided so far
    ({!Packgraph.remove_decided}), reflecting reuse against
    already-made decisions.  The result is the float the node-level
    graph gives: an owner's nodes share one degree and nids run owner
    by owner in cid order, so eliminating on owners removes the same
    number of nodes of each owner. *)
