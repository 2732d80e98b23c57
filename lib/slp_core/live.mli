(** The live superword set (paper §4.3): ordered superwords most likely
    resident in vector registers at the current scheduling point.

    Shared by the scheduler (reuse-driven group selection and lane
    ordering), the cost model (§4.3's profitability gate), and code
    generation (realising reuses as register moves).  Entries are
    ordered operand lists; capacity models the vector register file
    with least-recently-inserted eviction.  Each entry keeps its
    multiset key, computed once on insertion. *)

open Slp_ir

type t

val create : capacity:int -> t
val entries : t -> Operand.t list list
(** Most recently inserted first. *)

val size : t -> int
val mem_exact : t -> Operand.t list -> bool
val mem_multiset : t -> Pack.t -> bool

val iter_multiset : t -> Pack.t -> (Operand.t list -> unit) -> unit
(** Apply to every live superword carrying exactly this multiset, most
    recent first. *)

val coverable_by_two : t -> Pack.t -> bool
(** Two distinct live superwords together hold every operand of the
    pack (with multiplicity): one two-source shuffle rebuilds it. *)

val invalidate : t -> defs:Operand.t list -> unit
(** Drop every superword containing an operand that may alias one of
    the (re)defined operands. *)

val insert : t -> Operand.t list -> unit
(** Insert an ordered superword, replacing any entry with the same
    multiset; evicts the oldest entry beyond capacity. *)
