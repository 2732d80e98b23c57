(** A small reusable branch-and-bound core for exact set-partition
    optimisation (minimisation): 0-1 pack selection's search, with the
    client supplying the parts, their bounds, a feasibility check and
    the exact objective.  Zero dependencies. *)

type 'a choice = {
  part : 'a;  (** The client's part descriptor (opaque to the solver). *)
  members : int array;  (** Element ids covered by this part. *)
  bound : float;  (** Admissible lower bound on the part's cost. *)
}

(** What a search did.  The caller owns the record, so the counts of a
    search cut short by [tick] stay readable. *)
type stats = {
  mutable nodes : int;
      (** Search nodes: each partial partition visited, including the
          steps over an element an earlier part already covers. *)
  mutable leaves : int;  (** Complete partitions evaluated by [leaf]. *)
  mutable memo_hits : int;  (** Relaxations answered from the memo. *)
  mutable bound_cuts : int;  (** Subtrees cut by the bound. *)
  mutable infeasible : int;  (** Parts [feasible] rejected. *)
  mutable improvements : int;  (** Leaves that lowered the incumbent. *)
}

val new_stats : unit -> stats

val solve :
  size:int ->
  choices:(int -> available:(int -> bool) -> 'a choice list) ->
  single:(int -> 'a choice) ->
  relax:(int -> available:(int -> bool) -> float) ->
  feasible:('a -> bool) ->
  undo:('a -> unit) ->
  leaf:('a list -> float option) ->
  ?incumbent:float ->
  ?tick:(unit -> unit) ->
  stats:stats ->
  unit ->
  ('a list * float) option
(** Minimise over every partition of the elements [0 .. size - 1] into
    parts, depth first.  Enumeration is canonical: each node branches
    on the lowest uncovered element [e], which either stays single
    ([single e], always legal) or joins one of [choices e ~available],
    which must list every legal multi-element part whose least member
    is [e], all of whose other members are [available] (uncovered).
    [single e] and the choices are tried in ascending bound, the
    single first among equal bounds, choices in the order listed among
    themselves: the order of a stable sort of [single e :: choices].
    So every partition is generated exactly once.

    A node is cut when the bounds of the parts on its path plus the
    relaxation of the uncovered set reach the incumbent (less 1e-9).
    The relaxation is the sum, in ascending element order, of [relax e
    ~available] over the uncovered [e]; it is memoised on the uncovered
    set, so [relax] must depend only on that set.

    [feasible p] is asked about each multi-element part [p] before it
    joins the path, after every part already on the path joined, in
    depth-first order: the parts it has accepted and not yet seen
    undone are exactly the multi-element parts on the path, oldest
    first.  When it answers [true] the part joins, and [undo p] is
    called once the search leaves [p]'s subtree, so a client may keep
    incremental state along the search.  Singles never reach
    [feasible].

    [leaf parts] prices a complete partition, its parts in the order
    they joined the path ([None] = infeasible); a leaf below the
    incumbent (by more than 1e-9) becomes the new incumbent.

    [tick] fires once per node, before anything else is done at it
    (the client's own [choices] may tick too); letting it raise aborts
    the search, with no further callback.  The counts go into
    [stats].

    The result is the best complete partition found that beats
    [incumbent] (default infinity), with its exact objective; [None]
    when none does. *)
