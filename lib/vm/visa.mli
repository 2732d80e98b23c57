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

val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit
