(** The variable pack conflicting graph VP — step 2 of the basic
    grouping algorithm (paper §4.2.1).

    One node per variable pack instance of each candidate group, tagged
    with its owning candidate; edges join nodes whose owning candidates
    conflict.  Multiple nodes may carry the same pack (generated from
    different candidates) — the number of such nodes that can coexist
    is exactly the reuse count of that superword.

    The edges are not stored: two nodes are adjacent iff their owners
    conflict, and [conflict] is asked only when an edge is needed.
    [build] indexes the nodes by pack, so {!matching} visits only the
    nodes that carry a requested pack, not the whole graph. *)

type node = { nid : int; pack : Pack.t; owner : int  (** cid *) }

type t

val build :
  candidates:Candidate.t list -> conflict:(int -> int -> bool) -> t
(** [conflict] is consulted on candidate-id pairs (symmetric); the
    graph keeps it and asks it lazily, so it should be memoised. *)

val nodes : t -> node list
(** Live nodes, in increasing [nid] order. *)

val node_count : t -> int

val alive : t -> int -> bool
(** The candidate still has nodes in the graph. *)

val matching :
  t -> pack_types:Pack.Set.t -> exclude_owner:int -> compatible:(int -> bool) -> node list
(** Live nodes whose pack belongs to [pack_types], not owned by
    [exclude_owner], and whose owner satisfies [compatible], in
    increasing [nid] order — the raw material of an auxiliary graph. *)

val edges_among : t -> node list -> (int * int) list
(** VP edges restricted to the given nodes, as nid pairs. *)

val remove_decided : t -> int -> unit
(** Delete the nodes of a decided candidate and every node connected
    to them (paper step 4's VP update). *)

val remove_owner : t -> int -> unit
(** Delete only the given candidate's own nodes — used when a
    candidate is discarded (not decided), so that other candidates'
    reuse information survives. *)

val pp : Format.formatter -> t -> unit
(** Prints the node and edge counts, then the live nodes.  Counting the
    edges asks [conflict] of every pair of live owners. *)
