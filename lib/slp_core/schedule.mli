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
    consult, resolved once.

    Statements are held by {e rank}, their index in ascending id
    order, so a list of ranks sorts like the list of their ids.  The
    block's distinct operands are interned as {e ids} numbered in
    [Operand.compare] order: constants first, then scalars, then array
    elements, each array's elements one run.  So a pack's multiset is
    its ids sorted, and two operands are equal exactly when their ids
    are.  Each defined operand keeps the ids its definition may alias
    ({!clobbers}).  Per SIMD group (memoised by sorted rank list) the
    facts hold its non-constant packs, the ids its definitions may
    alias and the memory lane orders of its packs, and per lane order
    of the group a {!view}: its lanes at each pack and its schedule
    item.  They also keep what one schedule, check or estimate writes
    and the next one reuses: live superword sets and arrays by node
    and by rank.  The value belongs to its caller and is not for use
    from two domains at once; sharing one across many schedules of the
    same block (the exact solver's leaves, a gate's retry, a replay)
    saves the work, never changes a result. *)
module Facts : sig
  type t

  val make : deps:(int * int) list -> Block.t -> t
  (** [deps] are the statement dependence pairs the group DAG and the
      validity check are built from; pricing never reads them. *)

  val block : t -> Block.t
  val deps : t -> (int * int) list

  val rank : t -> int -> int
  (** Rank of a statement id; raises [Not_found]. *)

  val rank_count : t -> int
  val rank_stmt : t -> int -> Stmt.t
  val rank_id : t -> int -> int

  val row : t -> int -> int array
  (** [row t r]: the operand id at each position of the statement of
      rank [r] (0 = its definition).  Not to be changed. *)

  val id : t -> Operand.t -> int
  (** The id of an operand of the block; raises [Not_found]. *)

  val operand : t -> int -> Operand.t
  val id_count : t -> int

  val first_scalar : t -> int
  (** Ids below this one are constants. *)

  val first_elem : t -> int
  (** Ids from this one on are array elements. *)

  val clobbers : t -> int -> int array
  (** For an operand some statement defines, the ids that a definition
      of it may alias (by [Operand.may_alias]), sorted; empty for
      other operands. *)

  type group = private {
    members : int list;  (** Ranks, ascending: the group's key. *)
    ranks : int array;  (** The same ranks. *)
    positions : int array;  (** Non-constant positions, ascending (0 first). *)
    keys : int array array;  (** The multiset (sorted ids) at each of them. *)
    clobbers : int array;  (** Sorted ids the members' definitions may alias. *)
    memory_orders : int list list Lazy.t;
        (** Row-major lane order (ranks) of each pack that has one;
            only the scheduler's order search asks. *)
    mutable orders : view list;  (** The lane orders viewed so far. *)
  }

  (** One superword statement: a group in one lane order, memoised
      with everything a schedule, a replay or an estimate reads of it,
      so that emitting or pricing it again allocates nothing. *)
  and view = private {
    id : int;  (** Views of one facts value are numbered from 0. *)
    order : int list;  (** Ranks in lane order. *)
    group : group;
    lanes : int array array;
        (** By group position, the ids in lane order.  Not to be
            changed: live sets keep them. *)
    item : item;  (** [Superword] of the ids in lane order. *)
  }

  val view : t -> int list -> view
  (** A superword by its statement ids in lane order; raises
      [Not_found] on an id that is not a statement of the block. *)

  val live : t -> capacity:int -> Live.t
  (** An empty live superword set of that capacity, reused from the
      last call with the same capacity: a schedule or an estimate
      starts from it instead of allocating its own. *)

  type pricing = ..
  (** What the cost model keeps about the block between estimates
      ({!Cost} extends this type, being defined after this module). *)

  val pricing : t -> pricing option
  val set_pricing : t -> pricing -> unit
end

val run :
  ?options:options ->
  ?fuel:Slp_util.Slp_error.Fuel.t ->
  ?obs:Slp_obs.Obs.t ->
  dep_pairs:(int * int) list ->
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
    scratch); remark text is only formatted when [obs] takes
    remarks.  [dep_pairs] are the statement dependence pairs the
    group DAG is built from, the same ones the groups were formed
    under.  Builds the block's {!Facts} and runs {!run_facts}. *)

val run_facts :
  ?options:options ->
  ?fuel:Slp_util.Slp_error.Fuel.t ->
  ?obs:Slp_obs.Obs.t ->
  config:Config.t ->
  Facts.t ->
  Grouping.result ->
  t
(** {!run} on facts the caller already holds. *)

val analyze : config:Config.t -> Facts.t -> item list -> t
(** Replay a fixed item sequence against a fresh live superword set and
    compute its reuse statistics — used to evaluate schedules produced
    by other algorithms (the Larsen-Amarasinghe baseline, the native
    vectorizer) on an equal footing.  Replay reads statements only; no
    dependence is consulted. *)

val scheduled_stmt_ids : t -> int list
(** Statement ids in final execution order (superword members
    flattened in lane order). *)

val is_valid : dep_pairs:(int * int) list -> Block.t -> t -> bool
(** Checks the paper's validity constraints 1 and 2: members of one
    superword statement are pairwise independent (no dependence pair
    relates them), and every statement-level dependence goes forward in
    the emitted sequence of items.  [dep_pairs] must be the pairs the
    schedule was built from: a schedule that reorders two statements
    related only by a syntactic pair is valid under precise pairs and
    invalid under [Block.dep_pairs]. *)

val is_valid_facts : Facts.t -> t -> bool
(** {!is_valid} against the facts' dependence pairs. *)

val pp : Format.formatter -> t -> unit
