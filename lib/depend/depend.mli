(** Exact integer dependence analysis over the IR's affine subscripts.

    ZIV / GCD / Banerjee-style bound tests per subscript dimension
    within constant iteration boxes; symbolic bounds fall back to a
    conservative "assume dependent" verdict with a stable reason code.
    Produces per-array-pair dependence edges with distance/direction
    vectors plus scalar reduction recognition.  Consumed by the VM's
    [Parcheck] (chunk independence + reduction parallelization, built
    on {!cross_instance_conflict} and {!reductions_of_stmts}), the SLP
    grouping/scheduling passes (precise statement dependence graphs),
    and the verifier (DEP01–DEP05).

    {!of_program} and {!block_dep_pairs} resolve a block's accesses
    once: loop variables become ids by nest depth, each subscript
    dimension a row of ints.  Only pairs on one array, of equal rank
    and with at least one write, reach the solver, and a solve
    allocates nothing; only what it reports is built. *)

open Slp_ir

(** Constant iteration boxes: the enclosing loops' ranges at an access
    site, by nest depth, a name bound twice resolving to its innermost
    binding. *)
module Box : sig
  type range = Known of { lo : int; hi : int; step : int } | Unknown

  type t

  val empty : t

  val add : t -> string -> range -> t
  (** The box of a loop nested inside [t]'s innermost loop.  A known
      range's step must be positive, as a loop's is. *)

  val of_bounds : lo:Affine.t -> hi:Affine.t -> step:int -> range

  val trip : range -> int option
  (** Iteration count [((hi - lo) + step - 1) / step], clamped at 0;
      [None] for symbolic ranges. *)
end

(** {1 Per-dimension equation solver} — exposed for the qcheck
    brute-force property. *)

type sol =
  | Unsolvable
  | Solvable of { exact : bool; reason : string option }
      (** [exact = false]: the tests were inconclusive and the verdict
          is the conservative fallback; [reason] is ["symbolic-bounds"]
          or ["banerjee-inconclusive"]. *)

type access = {
  stmt : int;
  base : string;
  idxs : Affine.t list;
  write : bool;
  box : Box.t;
}

val same_instance_eqn : box:Box.t -> Affine.t -> Affine.t -> sol
(** Can subscript expressions [f] and [g] take the same value for
    (possibly different) variable assignments inside [box]?  All
    variables are shared between the two sides. *)

val cross_instance_conflict : pvar:string -> access -> access -> bool
(** Can the two accesses touch the same element from {e different}
    iterations of [pvar] (in either order)?  Loops other than [pvar]
    are renamed per side, so a [false] answer proves chunks of the
    [pvar] range are independent even under concurrency. *)

(** {1 Statement dependence within a block} *)

val block_dep_pairs : box:Box.t -> Block.t -> (int * int) list
(** Precise replacement for [Block.dep_pairs]: scalar dependences stay
    name-based, array dependences use the same-instance solver, so
    provably-disjoint offset subscripts stop blocking packing.  Pairs
    are [(earlier id, later id)] in program order. *)

val blocks_with_box : Program.t -> (Block.t * Box.t) list
(** Blocks with their enclosing iteration boxes, in [Program.blocks]
    order. *)

(** {1 Chunk-independence verdict} *)

type verdict =
  | Serial of string
      (** stable reason code: ["par-shape"], ["par-array-dep:<arr>"],
          ["par-scalar:<name>"] *)
  | Parallel of { reductions : (string * Types.binop) list }
      (** chunks of the outermost loop are independent; each listed
          scalar is a recognized reduction to run via per-core partial
          accumulators merged in core order *)
(** The multicore verdict.  [Slp_vm.Parcheck.analyze] computes it over
    Visa code, a scalar program's included (as its [Visa.of_program]
    image); the type lives here so that {!Dtrace} can check a verdict
    without seeing Visa. *)

val reductions_of_stmts : Stmt.t list -> (string * Types.binop) list
(** Scalars whose every write in [stmts] is an associative
    self-update [s = s ⊕ e] with one shared operator and which are
    read nowhere else in [stmts].  Callers owning accesses outside the
    statement list ([Parcheck], for vector instructions) must
    disqualify separately. *)

val identity_of : Types.binop -> float
(** Identity element of a reduction operator (Add → 0, Mul → 1,
    Min → +inf, Max → −inf).  Raises [Invalid_argument] for
    non-reduction operators. *)

val associative : Types.binop -> bool

(** {1 The dependence graph} *)

type direction = Lt | Eq | Gt | Any
type kind = Flow | Anti | Output

type edge = {
  src : int;
  dst : int;
  array : string;
  ekind : kind;
  carrier : string option;  (** [None]: loop-independent *)
  distance : int option;  (** in carrier iterations, when exactly known *)
  directions : (string * direction) list;
      (** per enclosing loop, outermost first *)
  exact : bool;
  reason : string option;
}

type graph = {
  program : string;
  edges : edge list;
  reductions : (string * Types.binop * int list) list;
      (** scalar, operator, update statement ids — per outermost loop *)
}

val of_program : Program.t -> graph
val to_json : graph -> Slp_obs.Json.t
val direction_string : direction -> string
val kind_string : kind -> string
val op_string : Types.binop -> string
