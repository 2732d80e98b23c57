(** Candidate group identification — step 1 of the basic grouping
    algorithm (paper §4.2.1).

    A candidate group is an unordered pair of isomorphic,
    dependence-free units whose combined width fits the SIMD datapath.
    Two candidates conflict when they share a unit or when their
    member statements depend on each other both ways (selecting both
    would create a dependence cycle). *)

open Slp_ir

type t = {
  cid : int;  (** Dense candidate index, assigned in discovery order. *)
  u1 : int;  (** Smaller unit uid. *)
  u2 : int;  (** Larger unit uid. *)
  i1 : int;  (** [u1]'s dense index in the round's {!Units.Deps.unit_graph}. *)
  i2 : int;  (** [u2]'s dense index. *)
  packs : Pack.t list;
      (** Merged variable packs, one per operand position (lhs first),
          all-constant packs omitted; duplicates kept (a pack used at
          two positions counts twice towards reuse). *)
  adjacency : int;
      (** Tie-break score: 1,000,000 for a contiguous store-target
          pack, otherwise the number of contiguous source packs (the
          paper breaks equal-weight ties randomly; this is
          deterministic and never overrides a weight difference). *)
  scattered_store : bool;
      (** Memory store target that is not consecutive — committing the
          candidate forces an unpack/scatter that no layout change can
          repair, so its weight carries a fixed penalty. *)
}

val find :
  env:Env.t ->
  config:Config.t ->
  units:Units.t list ->
  deps:Units.Deps.unit_graph ->
  t list
(** All candidate groups over the current units, deterministic order
    (sorted by [(u1, u2)]). *)

val units_of : t -> int * int
val shares_unit : t -> t -> bool

val conflicts : deps:Units.Deps.unit_graph -> t -> t -> bool
(** Shared unit, or mutual direct dependence between the two merged
    groups.  Reads at most eight bytes of [deps]' unit matrix through
    the candidates' unit indices, so it is cheap enough to ask again
    rather than memoise; [deps] must be the graph the candidates were
    found over.  A candidate conflicts with itself. *)

val pp : Format.formatter -> t -> unit
