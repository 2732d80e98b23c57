(** Scalar reference execution of kernel programs.

    Interprets the IR directly, computing real values and charging
    machine-model costs (ALU cycles, cache-simulated memory
    latencies).  This is both the "scalar code" baseline every scheme
    is normalised against and the semantic oracle vectorized execution
    must match.

    With [cores > 1] the outermost loop's iteration space is split
    into contiguous per-core chunks, each simulated with its own cache
    hierarchy under a memory-contention factor; reported cycles are
    the slowest core's (execution time), while instruction counters
    sum over cores (work). *)

open Slp_ir

type result = Engine.result = { counters : Counters.t; memory : Memory.t }

val run :
  ?cores:int ->
  ?seed:int ->
  ?memory:Memory.t ->
  ?profile:Slp_obs.Profile.t ->
  ?pool:Dpool.t ->
  machine:Slp_machine.Machine.t ->
  Program.t ->
  result
(** Default [cores] 1, [seed] 42.  When [memory] is given it is used
    (and mutated) without re-initialisation.  Executes through the
    compiled engine ({!Engine.run_scalar}); [?profile] attributes
    cycles and cache accesses per statement (see {!Engine.run_scalar}). *)

val final_memory :
  ?cores:int -> ?seed:int -> machine:Slp_machine.Machine.t -> Program.t -> Memory.t
(** The final memory of {!run}, from a values-only run
    ({!Engine.scalar_final_memory}): no cache simulation, counters or
    cycles.  The scalar-reference check reads only this. *)

val run_interpreter :
  ?cores:int ->
  ?seed:int ->
  ?memory:Memory.t ->
  machine:Slp_machine.Machine.t ->
  Program.t ->
  result
(** The direct tree-walking interpreter — the reference oracle the
    compiled engine is differentially tested against.  Same observable
    behaviour as {!run}, several times slower. *)

val chunk_ranges : lo:int -> hi:int -> step:int -> cores:int -> (int * int) list
(** Contiguous step-aligned per-core ranges partitioning [lo, hi). *)

val exec_stmt :
  memory:Memory.t ->
  cache:Cache.t ->
  counters:Counters.t ->
  machine:Slp_machine.Machine.t ->
  index_env:(string -> int) ->
  Stmt.t ->
  unit
(** Single-statement interpreter, shared with the vector executor's
    [Sstmt] case. *)
