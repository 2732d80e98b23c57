(** Statement scheduling — the second phase of superword statement
    generation (paper §4.3).

    Orders the SIMD groups (and remaining singles) into a valid
    execution sequence that brings superword reuses close together,
    and fixes the lane order of each superword statement so that as
    many reuses as possible are *direct* (no permutation) and the rest
    cost only one vector permutation instead of a memory trip.

    A live superword set tracks the ordered superwords most recently
    produced or consumed; the ready group with the most live reuses
    runs next; lane orders are searched only among orders that realise
    at least one direct reuse (plus the row-major memory orders of the
    group's contiguous packs, which make the eventual pack a single
    vector load). *)

open Slp_ir

type item = Single of int | Superword of int list  (** Ordered statement ids. *)

type selection = Reuse_driven | Program_order
(** How the next ready superword statement is chosen: most live
    reuses (paper §4.3) or earliest program position (ablation). *)

type ordering_search = Direct_reuse_only | Exhaustive
(** Which lane orders are tested: only those realising at least one
    direct reuse plus the memory orders (paper: "we don't employ
    exhaustive search across all valid orderings"), or every
    permutation up to a safety cap (ablation). *)

type options = { selection : selection; ordering_search : ordering_search }

val default_options : options
(** Reuse-driven, direct-reuse-only — the paper's configuration. *)

type stats = {
  direct_reuses : int;
      (** Source packs found live in matching lane order. *)
  permuted_reuses : int;
      (** Source packs found live in a different lane order (cost: one
          permutation). *)
  packed_sources : int;
      (** Source packs that had to be packed from memory/scalars. *)
  permutations : int;  (** Predicted permutation instructions. *)
}

type t = { items : item list; stats : stats }

(** The facts of one block that scheduling, validation and pricing
    consult, resolved once: each statement with its operand positions,
    the dependence pairs with their lookup set, and, per SIMD group
    (memoised by sorted member list), its non-constant packs, its defs
    and the memory lane orders of its packs.  The value belongs to its
    caller; sharing one across many schedules of the same block (the
    exact solver's leaves) saves the work, never changes a result. *)
module Facts : sig
  type t

  val make : deps:(int * int) list -> Block.t -> t
  (** [deps] are the statement dependence pairs the group DAG and the
      validity check are built from; pricing never reads them. *)

  val block : t -> Block.t

  val stmt : t -> int -> Stmt.t
  (** By id; raises [Not_found]. *)

  val ordered : t -> int list -> int -> Operand.t list
  (** [ordered t lanes pos]: the operands at position [pos] of the
      statements [lanes], in lane order. *)

  val position_count : t -> int -> int
end

val run :
  ?options:options ->
  ?fuel:Slp_util.Slp_error.Fuel.t ->
  ?obs:Slp_obs.Obs.t ->
  ?dep_pairs:(int * int) list ->
  env:Env.t ->
  config:Config.t ->
  Block.t ->
  Grouping.result ->
  t
(** Raises {!Slp_util.Slp_error.Error} with code [Schedule_failed] if
    the groups are not schedulable (the grouping phase guarantees they
    are).  [fuel] charges one step per emission-loop iteration and
    raises with code [Fuel_exhausted] when the budget runs out.
    [obs] collects one remark per source pack of each emitted
    superword: [SCHED-REUSE] (live in lane order), [SCHED-PERM]
    (live, permutation needed), or [SCHED-PACK] (packed from
    scratch).  [dep_pairs] overrides the statement dependence pairs
    the group DAG is built from (default: the syntactic
    [Block.dep_pairs]).  Builds the block's {!Facts} and runs
    {!run_facts}. *)

val run_facts :
  ?options:options ->
  ?fuel:Slp_util.Slp_error.Fuel.t ->
  ?obs:Slp_obs.Obs.t ->
  config:Config.t ->
  Facts.t ->
  Grouping.result ->
  t
(** {!run} on facts the caller already holds. *)

val analyze : config:Config.t -> Block.t -> item list -> t
(** Replay a fixed item sequence against a fresh live superword set and
    compute its reuse statistics — used to evaluate schedules produced
    by other algorithms (the Larsen-Amarasinghe baseline, the native
    vectorizer) on an equal footing. *)

val scheduled_stmt_ids : t -> int list
(** Statement ids in final execution order (superword members
    flattened in lane order). *)

val is_valid : ?dep_pairs:(int * int) list -> Block.t -> t -> bool
(** Checks the paper's validity constraints 1 and 2: members of one
    superword statement are pairwise independent (no dependence pair
    relates them), and every statement-level dependence goes forward in
    the emitted sequence of items.  [dep_pairs] must be the same pairs
    the schedule was built from (default: the syntactic
    [Block.dep_pairs]). *)

val is_valid_facts : Facts.t -> t -> bool
(** {!is_valid} against the facts' dependence pairs. *)

val pp : Format.formatter -> t -> unit
