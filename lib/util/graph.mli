(** Imperative graphs over integer node identifiers.

    The SLP framework manipulates four graphs: the variable pack
    conflicting graph and the statement grouping graph (both undirected,
    the latter edge-weighted), the per-candidate auxiliary graph
    (undirected), and the superword statement dependence graph
    (directed).  This module provides the two graph flavours they need.

    Node identifiers are arbitrary non-negative integers chosen by the
    caller; each node carries a polymorphic label. *)

module Undirected : sig
  type 'a t
  (** Undirected graph with ['a]-labelled nodes and float-weighted
      edges.  Parallel edges are collapsed; self loops are rejected. *)

  val create : unit -> 'a t

  val add_node : 'a t -> int -> 'a -> unit
  (** [add_node g id label] adds node [id].  Replaces the label if the
      node already exists (edges are kept). *)

  val add_edge : ?weight:float -> 'a t -> int -> int -> unit
  (** Adds an edge between two existing nodes.  Raises
      [Invalid_argument] on self loops or unknown endpoints.  Re-adding
      an edge overwrites its weight. *)

  val remove_node : 'a t -> int -> unit
  (** Removes a node and all incident edges.  No-op if absent. *)

  val remove_edge : 'a t -> int -> int -> unit

  val mem_node : 'a t -> int -> bool
  val mem_edge : 'a t -> int -> int -> bool
  val label : 'a t -> int -> 'a
  val set_weight : 'a t -> int -> int -> float -> unit
  val weight : 'a t -> int -> int -> float
  val degree : 'a t -> int -> int
  val neighbours : 'a t -> int -> int list
  val nodes : 'a t -> int list
  val edges : 'a t -> (int * int * float) list
  (** Each undirected edge is reported once, with [fst <= snd]. *)

  val node_count : 'a t -> int
  val edge_count : 'a t -> int
  val is_edgeless : 'a t -> bool

  val max_degree_node : 'a t -> int option
  (** Node with the largest degree (>= 1); ties broken by the smallest
      identifier, making algorithms deterministic.  [None] if the graph
      has no edges. *)

  val max_weight_edge : 'a t -> (int * int * float) option
  (** Edge with the largest weight; ties broken by smallest endpoint
      pair.  [None] if there are no edges. *)

  val copy : 'a t -> 'a t
  val fold_nodes : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b
end

module Directed : sig
  type 'a t
  (** Directed undecorated graph with ['a]-labelled nodes. *)

  val create : unit -> 'a t
  val add_node : 'a t -> int -> 'a -> unit
  val add_edge : 'a t -> int -> int -> unit
  (** [add_edge g u v] adds the arc [u -> v].  Self loops rejected. *)

  val remove_node : 'a t -> int -> unit
  val mem_node : 'a t -> int -> bool
  val mem_edge : 'a t -> int -> int -> bool
  val label : 'a t -> int -> 'a
  val succs : 'a t -> int -> int list
  val preds : 'a t -> int -> int list
  val in_degree : 'a t -> int -> int
  val out_degree : 'a t -> int -> int
  val nodes : 'a t -> int list
  val node_count : 'a t -> int
  val edge_count : 'a t -> int

  val sources : 'a t -> int list
  (** Nodes with in-degree zero, in increasing id order ("ready" set of
      a dependence graph). *)

  val has_cycle : 'a t -> bool
  val reachable : 'a t -> int -> int -> bool
  (** [reachable g u v] is true iff there is a directed path from [u]
      to [v] (including the trivial path [u = v]). *)

  val topological_order : 'a t -> int list option
  (** Kahn's algorithm with smallest-id tie breaking; [None] if cyclic. *)

  val copy : 'a t -> 'a t
end

val acyclic : int list array -> bool
(** Kahn's algorithm on a dense directed graph given as the successor
    lists of nodes [0 .. n-1] (repeated edges allowed): true when the
    graph has no cycle. *)
