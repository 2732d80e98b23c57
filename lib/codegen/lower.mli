(** Code generation: lowering scheduled superword statements to the
    vector ISA.

    Each superword statement becomes: materialisation of its source
    packs (register reuse when the live tracker holds the superword —
    directly or via one permutation; otherwise a vector load for
    contiguous packs, a scalar-segment vector load for
    layout-optimised scalar packs, or a lane-by-lane gather), a tree
    of vector ALU operations, and a destination commit (vector store,
    permute+store, scatter, or scalar unpacks limited to lanes whose
    scalars are actually demanded).  The register tracker capacity is
    the machine's vector register file size; evicted superwords are
    simply repacked on next use. *)

val lower_with_origins :
  ?obs:Slp_obs.Obs.t ->
  machine:Slp_machine.Machine.t ->
  ?reuse:bool ->
  ?scalar_offsets:(string * int) list ->
  ?setup:Slp_vm.Visa.item list ->
  Slp_core.Driver.program_plan ->
  Slp_vm.Visa.program * Slp_obs.Profile.key array list
(** The lowered program, and the profiling origin of every emitted
    instruction: one key array per [Visa.Block] of the body in
    pre-order, entry [i] naming the statement or pack that produced
    instruction [i] of that block.

    [reuse] (default true) enables register-resident superword reuse;
    disabling it forces every source pack to be rebuilt from
    memory/scalars — the knob behind the reuse-value experiment.
    [scalar_offsets]: byte offsets of layout-optimised scalars within
    the scalar segment (paper §5.1) — consecutive 8-byte slots make a
    scalar superword eligible for single vector memory operations.
    [setup] is prepended replication code from the array layout
    optimizer (§5.2).  [obs] collects one
    [PACK-DROP-ALIGN] remark per source pack that fell back to an
    element-wise gather and one [PACK-SCATTER] remark per destination
    pack unpacked element-wise to memory (from the surviving
    forced-unpack fixpoint attempt only). *)
