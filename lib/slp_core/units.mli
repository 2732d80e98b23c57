(** Grouping units: the "statements" of one iterative-grouping round.

    In the first round every unit is a single IR statement; after a
    round, each decided SIMD group becomes one unit whose positions are
    merged variable packs ("we treat each SIMD group as a new single
    statement, and each variable pack as a new single variable",
    paper §4.2.2). *)

open Slp_ir

type t = {
  uid : int;  (** Unique within a grouping session. *)
  members : int list;  (** Original statement ids (unordered set, kept sorted). *)
  shape : Expr.t;  (** Representative operator skeleton. *)
  positions : Pack.t array;  (** Per position (0 = lhs) the merged pack. *)
  elem_ty : Types.scalar_ty;  (** Element type (statements are homogeneous). *)
  mem_dest : bool;  (** Store target is an array element. *)
}

val stmt_elem_ty : env:Env.t -> Stmt.t -> Types.scalar_ty
(** Element type of a statement's store target. *)

val of_stmt : env:Env.t -> Stmt.t -> t
(** A singleton unit; [uid] = statement id. *)

val merge : uid:int -> t -> t -> t
(** Merge two isomorphic units into one (unordered union of members,
    multiset union of positions). *)

val lane_count : t -> int
val width_bits : t -> int

val isomorphic : env:Env.t -> t -> t -> bool
(** Same store-target kind, shape and element type, and equal member
    counts (lanes of unequal halves cannot fill a SIMD register
    uniformly). *)

val pp : Format.formatter -> t -> unit

(** Dependence relations lifted from statements to units. *)
module Deps : sig
  type unit_graph

  val build : ?dep_pairs:(int * int) list -> Block.t -> t list -> unit_graph
  (** Unit-level dependence DAG: an edge [u -> v] when some member of
      [u] precedes and carries a dependence to some member of [v].
      [dep_pairs] supplies the statement-level pairs (e.g. the precise
      dependence analysis of [Slp_depend]); default is the syntactic
      [Block.dep_pairs]. *)

  val depends : unit_graph -> int -> int -> bool
  (** Direct dependence between units by uid. *)

  val mergeable : unit_graph -> int -> int -> bool
  (** True when no dependence path connects the two units in either
      direction — merging them cannot create a cycle (paper §4.1
      constraint 1, strengthened to paths so that the scheduling phase
      is guaranteed a valid order). *)

  val merged_acyclic : unit_graph -> (int * int) list -> bool
  (** Would the graph stay acyclic if each listed uid pair were
      contracted into one node?  A dependence between the two units of
      a pair is not a cycle ({!mergeable} rules those out).  Raises
      [Invalid_argument] on a uid that is not a node of the graph. *)
end
