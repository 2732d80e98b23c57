(** Execution of vectorized programs on the simulated SIMD machine.

    Interprets {!Visa.program}: computes real lane values (so results
    can be compared against {!Scalar_exec}) and charges machine-model
    costs — vector ALU cycles, cache-simulated memory latencies for
    vector and element accesses, and the packing/unpacking register
    instructions.  Setup items (layout replication) run once and are
    charged to [setup_centicycles].  Multicore semantics mirror
    {!Scalar_exec.run}. *)

type result = Engine.result = { counters : Counters.t; memory : Memory.t }

val run :
  ?cores:int ->
  ?seed:int ->
  ?memory:Memory.t ->
  ?profile:Slp_obs.Profile.t ->
  ?origins:Slp_obs.Profile.key array list ->
  ?pool:Dpool.t ->
  machine:Slp_machine.Machine.t ->
  Visa.program ->
  result
(** Executes through the compiled engine ({!Engine.run_vector});
    [?profile]/[?origins] attribute cycles and cache accesses per
    originating statement or pack (see {!Engine.run_vector}). *)

val run_interpreter :
  ?cores:int ->
  ?seed:int ->
  ?memory:Memory.t ->
  machine:Slp_machine.Machine.t ->
  Visa.program ->
  result
(** The direct tree-walking interpreter — the reference oracle the
    compiled engine is differentially tested against.  Same observable
    behaviour as {!run}, several times slower. *)
