(** The vector instruction set executed by the simulator.

    Code generation lowers each scheduled superword statement into
    these instructions; the simulator both computes real values (so
    vectorized results can be checked against scalar execution) and
    charges machine-model costs. *)

open Slp_ir

type vreg = int

type lane_src =
  | Mem of Operand.t  (** An array element ([Operand.Elem]). *)
  | Reg of string  (** A scalar register. *)
  | Imm of float

type lane_dst = To_mem of Operand.t | To_reg of string

type instr =
  | Vload of { dst : vreg; elems : Operand.t list }
      (** Contiguous vector load; [elems] are the lane addresses, low
          lane first. *)
  | Vstore of { src : vreg; elems : Operand.t list }  (** Contiguous store. *)
  | Vgather of { dst : vreg; srcs : lane_src list }
      (** Build a vector lane by lane — the packing operation. *)
  | Vunpack of { src : vreg; dsts : lane_dst option list }
      (** Scatter lanes to scalars/memory — the unpacking operation;
          [None] lanes are discarded. *)
  | Vbroadcast of { dst : vreg; src : lane_src; lanes : int }
  | Vpermute of { dst : vreg; src : vreg; sel : int array }
      (** [dst.(i) = src.(sel.(i))]. *)
  | Vshuffle2 of { dst : vreg; a : vreg; b : vreg; sel : (int * int) array }
      (** Two-source shuffle (shufpd/unpck-style):
          [dst.(i) = (if fst sel.(i) = 0 then a else b).(snd sel.(i))]. *)
  | Vbin of { dst : vreg; op : Types.binop; a : vreg; b : vreg }
  | Vun of { dst : vreg; op : Types.unop; a : vreg }
  | Vspill of { src : vreg; slot : int }
      (** Save a full vector register to its spill slot (inserted by
          the register allocator when pressure exceeds the machine's
          register file). *)
  | Vreload of { dst : vreg; slot : int }
  | Vload_scalars of { dst : vreg; sources : string list }
      (** One vector load covering scalar spill slots made contiguous
          by the data layout optimizer (paper §5.1). *)
  | Vstore_scalars of { src : vreg; targets : string list }
      (** One vector store materialising a scalar superword to its
          contiguous slots. *)
  | Sstmt of Stmt.t  (** An unvectorized scalar statement. *)

type vloop = { index : string; lo : Affine.t; hi : Affine.t; step : int; body : item list }

and item = Block of instr list | Loop of vloop

type program = {
  name : string;
  env : Env.t;
  setup : item list;
      (** Run once before the body (data layout replication); its
          cycles are accounted separately. *)
  body : item list;
}

val of_program : Program.t -> program
(** The scalar program as Visa: no setup, and every basic block one
    [Block] of [Sstmt]s under the same loops — the shape
    [Lower.lower_with_origins] emits for a block with no plan. *)

val instr_count : program -> int
(** Static instruction count of the body. *)

val fold_instrs : ('a -> instr -> 'a) -> 'a -> item list -> 'a
(** Every instruction of [items] and of their loops, in program order. *)

(** {1 Def/use}

    What each opcode reads and writes is written out once, in
    {!fold_locs}; every analysis that asks it (the engine's settle
    check and register-file sizing, the multicore verdict, the
    register allocator) reads that fold or {!first_reads}. *)

type loc =
  | Elem of string * Affine.t list  (** An array element: array and subscripts. *)
  | Scalar of string  (** A named scalar; inside a loop over it, its index. *)
  | Vreg of vreg
  | Slot of int  (** A vector spill slot. *)

module Locs : Set.S with type elt = loc
(** Sets of locations in which every element of one array is the same
    location: two subscripts may name one element, and one subscript
    names another element in each inner iteration. *)

val fold_locs : ('a -> write:bool -> loc -> 'a) -> 'a -> instr -> 'a
(** [fold_locs f acc i] folds [f] over every location [i] reads, then
    every location it writes, each in operand order: a statement's
    right-hand side leaves left to right, then its left-hand side; a
    vector instruction's sources, then its destination.  Constants
    and immediates are no location. *)

type first_reads = {
  early : loc list;
      (** The locations read before any certain write of them in the
          iteration, each once (as {!Locs} tells them apart), in the
          order first found.  An array is never certainly written, so
          every array read makes it early; it appears with the
          subscripts of its first read.  A read of a loop's index
          inside that loop reads the counter, not a location, and is
          left out. *)
  written : Locs.t;  (** Every location written anywhere in the items. *)
}

val first_reads : item list -> first_reads
(** One iteration of a loop body [items], walked in order.  A write in
    an inner loop counts as certain for what follows the loop only if
    the loop has constant bounds and at least one trip (a zero-trip
    loop writes nothing). *)

val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit
