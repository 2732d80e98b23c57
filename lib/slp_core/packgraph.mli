(** The variable pack conflicting graph VP — step 2 of the basic
    grouping algorithm (paper §4.2.1).

    One node per variable pack instance of each candidate group, tagged
    with its owning candidate; edges join nodes whose owning candidates
    conflict.  Multiple nodes may carry the same pack (generated from
    different candidates) — the number of such nodes that can coexist
    is exactly the reuse count of that superword.

    Neither nodes nor edges are stored.  [build] gives each distinct
    pack a dense id and keeps, over dense candidate ids (cids), each
    owner's pack ids, the owners carrying each pack id, the live owners
    and the decided pack ids.  Two nodes are adjacent iff their owners
    conflict ({!Candidate.conflicts}, asked again rather than stored),
    and nodes leave the graph a whole owner at a time.  So the nodes of
    one owner are never adjacent and all have the same neighbours:
    {!select} hands out the auxiliary graph of a candidate on this
    owner quotient. *)

type t

val build : deps:Units.Deps.unit_graph -> candidates:Candidate.t list -> t
(** Every candidate starts live; [deps] must be the graph the
    candidates were found over.  A node's id is its rank among all the
    candidates' packs in ascending cid order, pack by pack (the order
    {!Candidate.find} lists them in). *)

val node_count : t -> int
(** Live nodes: the packs of the live owners, with multiplicity. *)

val alive : t -> int -> bool
(** The candidate has not been removed. *)

val conflict : t -> int -> int -> bool
(** {!Candidate.conflicts} by cid; false for a cid with itself. *)

(** The auxiliary graph of one candidate [c] on the owner quotient: the
    live owners other than [c] that do not conflict with it and carry
    at least one pack type of [D ∪ {c}], where [D] is the packs decided
    so far.  The arrays are scratch space of the graph, valid until the
    next {!select}; only their first [size] entries mean anything, and
    the caller may update [mult] and [degree] in place, as elimination
    does. *)
type selection = private {
  mutable size : int;
  owners : int array;  (** The selected owners' cids, in no set order. *)
  mult : int array;
      (** [mult.(k)]: the nodes of [owners.(k)] in the auxiliary graph,
          one per pack of the owner whose type is in [D ∪ {c}]. *)
  degree : int array;
      (** [degree.(k)]: the degree shared by every node of [owners.(k)],
          the sum of [mult] over the selected owners it conflicts
          with. *)
  mutable types : int;  (** Distinct pack types of [D ∪ {c}]. *)
  mutable packs : int;  (** Packs of [D ∪ {c}], with multiplicity. *)
}

val select : t -> cid:int -> selection
(** The work is the live carriers of the pack types, then [size²]
    conflict questions for the degrees; dead owners met on the way are
    swept out for good. *)

val remove_decided : t -> int -> unit
(** Record the candidate's packs as decided (they join [D] for every
    later {!select}), then, if it is live, delete it and every owner
    conflicting with it (paper step 4's VP update). *)

val remove_owner : t -> int -> unit
(** Delete only the given candidate — used when a candidate is
    discarded (not decided), so that other candidates' reuse
    information survives. *)

val pp : Format.formatter -> t -> unit
(** Prints the node and edge counts, then the live nodes in id order.
    Counting the edges asks {!conflict} of every pair of live
    owners. *)
