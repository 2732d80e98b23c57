(** The live superword set (paper §4.3): ordered superwords most likely
    resident in vector registers at the current scheduling point.

    Shared by the scheduler (reuse-driven group selection and lane
    ordering, and the replay of other schemes' schedules) and the cost
    model (§4.3's profitability gate).  A superword is an array of
    operand ids, one per lane, as {!Schedule.Facts} numbers them: ids
    follow [Operand.compare], so a superword's multiset key is its ids
    sorted.  Capacity models the vector register file with
    least-recently-inserted eviction.  The set lives in arrays fixed
    at creation and updated in place; no query, invalidation or
    insertion allocates. *)

type t

val create : capacity:int -> t

val capacity : t -> int

val clear : t -> unit
(** Empty the set, keeping its arrays for reuse. *)

val entries : t -> int array list
(** Most recently inserted first. *)

val size : t -> int

val mem_exact : t -> int array -> bool
(** Some live superword has exactly these lanes, in this order. *)

val mem_multiset : t -> int array -> bool
(** Some live superword carries this multiset (sorted ids). *)

val iter_multiset : t -> int array -> (int array -> unit) -> unit
(** Apply to the lanes of every live superword carrying exactly this
    multiset, most recent first.  The callback must not change the set
    or keep the array. *)

val coverable_by_two : t -> int array -> bool
(** Two distinct live superwords together hold every id of the sorted
    multiset (with multiplicity): one two-source shuffle rebuilds it. *)

val invalidate : t -> int array -> unit
(** [invalidate t clobbered] drops every superword holding one of the
    ids in [clobbered] (sorted): the ids that the definitions being
    executed may alias. *)

val insert : t -> lanes:int array -> key:int array -> unit
(** Insert a superword with its multiset key ([lanes] sorted),
    replacing any entry with the same key; evicts the oldest entry
    beyond capacity.  The set keeps both arrays, so the caller must
    not change them afterwards. *)
