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

val weight :
  vp:Packgraph.t ->
  conflict:(int -> int -> bool) ->
  elimination:elimination ->
  decided_packs:Pack.t list ->
  cand:Candidate.t ->
  float
(** The candidate's estimated average superword reuse (the edge weight
    of SG).  [decided_packs] lists, with multiplicity, the packs of all
    groups decided so far — they count towards N_t, reflecting reuse
    against already-made decisions. *)
