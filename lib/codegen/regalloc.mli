(** Vector register allocation — the paper's post-processing module
    ("the post-processing module performs register allocation and
    other low-level optimizations", §3).

    Code generation emits unbounded virtual vector registers; this
    pass maps each straight-line block onto the machine's physical
    register file with a forward linear scan, spilling the live value
    with the furthest next use (Belady) to dedicated 64-byte spill
    slots when pressure exceeds the file.  Spills and reloads are real
    instructions ({!Slp_vm.Visa.Vspill}/[Vreload]) charged like vector
    memory operations by the simulator. *)

type stats = {
  spills : int;  (** Static spill instructions inserted. *)
  reloads : int;
  max_pressure : int;  (** Peak simultaneously-live virtual registers. *)
}

val zero_stats : stats

val allocate_block :
  registers:int -> Slp_vm.Visa.instr list -> Slp_vm.Visa.instr list * stats
(** Raises [Invalid_argument] when [registers < 2] (an instruction can
    need two simultaneous sources). *)

val program_with_origins :
  registers:int ->
  origins:Slp_obs.Profile.key array list ->
  Slp_vm.Visa.program ->
  Slp_vm.Visa.program * stats * Slp_obs.Profile.key array list
(** Allocate every block of the body (setup code contains no vector
    instructions), transforming the profiling origins from
    {!Lower.lower_with_origins} alongside the code: every spill or
    reload inserted while processing an instruction inherits that
    instruction's origin, so the returned arrays stay parallel to the
    allocated blocks (pre-order). *)
