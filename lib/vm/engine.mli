(** Closure-compiled execution engine.

    Compiles a program once into a tree of OCaml closures over a flat
    execution state — scalar names resolved to integer slots, vector
    registers to a preallocated array, loop indices to a depth-indexed
    frame, affine subscripts to specialised multiply-adds — and then
    runs it.  One item compiler and one driver serve both entry
    points: a scalar program runs as its {!Visa.of_program} image, and
    a multicore run of either takes its chunk-independence verdict
    from {!Parcheck.analyze} of the Visa program it runs.
    Observationally identical to the reference interpreters in
    {!Scalar_exec} and {!Vector_exec}: bit-identical memory, counters
    and cycles (the differential fuzz suite in [test/test_fuzz.ml]
    checks this with {!Memory.equal} and {!Counters.equal}), just
    several times faster.

    There are three compiles.  A {e timed} run ({!run_scalar},
    {!run_vector}) simulates the cache, counts every event and charges
    cycles.  A {e values-only} run ({!scalar_final_memory},
    {!vector_final_memory}) computes the same values, raises the same
    traps and lane errors, and chunks, privatizes and merges reductions
    the same way, but does no cache access, cycle charging or counter
    update.  The kernel language has no data-dependent control flow,
    so values never depend on timing and the two leave bit-identical
    memory.  A {e timing-only} run ({!run_timing}) is the converse at
    one core: no values, memory initialisation or register file; each
    [Visa.Block]'s non-memory cycles and counts are one static delta
    added per execution, and only its memory accesses are simulated,
    in the timed run's order.  Every cost is a whole number of
    centicycles, so the reordered additions give the timed run's
    counters bit for bit.
    Register-lane checks are proved before the run; a program the
    proof rejects, or that spills, runs timed.

    One-core timed runs without a profiler, and timing-only runs,
    fast-forward every loop whose body mentions its index in no
    subscript and no inner loop bound: each iteration makes the same
    accesses, and a hierarchy of L LRU levels fed one stream per
    iteration is in a fixed state after iteration L.  Iteration k
    (k <= L) is steady already when it missed no line at cache level
    k: the levels above had settled, and a level that misses nothing
    keeps its lines and order and passes nothing on, so every later
    iteration charges what iteration k charged.  So up to L + 1
    iterations (4 on both machine models; 2 in every suite loop) are
    simulated, and the first steady one's counts and cycles are added
    once per remaining iteration, exactly.  A timed run computes the
    remaining iterations' values-only, so memory, traps, lane errors
    and armed faults are unchanged; a timing-only run skips them
    unless a fault is armed.
    Multicore and profiled runs simulate every iteration.

    Such a loop settles when the state one iteration leaves is, besides,
    a fixed point of its body, decided once per loop from names: its
    index appears nowhere in the body, not even read as a value, and no
    location the body reads before writing it is written in it
    ({!Visa.first_reads}: an array is one location, so no array the
    body writes is read in it, and every scalar, register and spill
    slot it writes is written before it is read).  Every later iteration then
    writes exactly what the first wrote and raises nothing new.  An
    index read as a value ([A[i] = t]) moves no address but changes
    every iteration's values, so it disqualifies the loop.  A one-core
    timed run without a profiler skips a settled loop's values past the
    warm-up, and a one-core values-only run computes one iteration of it
    and skips the rest; neither skips while a fault is armed, and
    multicore and profiled runs never do.  The scalar-reference check
    ({!scalar_final_memory}) shares this skip with the run it checks, so
    at one core it is not independent of it: the interpreters
    ({!Scalar_exec.run_interpreter}, {!Vector_exec.run_interpreter}),
    which compute every iteration, are.

    Array subscripts are linked once.  A 1-D subscript, or a rank-2
    one with at most one loop term per dimension, becomes one closure
    that computes, bounds-checks and flattens the index; other shapes
    loop over linked per-dimension constants and terms.  A vector load
    or store whose lanes are contiguous along the last dimension of a
    rank-1 or rank-2 array (the same leading subscripts in every lane,
    lane k's last subscript lane 0's plus k) makes one range check
    and a flat copy.  Out of range, it replays the per-lane checks, so
    the {!Trap.Trap} names the same lane and dimension as
    {!Vector_exec.run_interpreter}'s.

    A run allocates nothing per simulated access, only what compiling
    its closures takes.  Its caches come from {!Cache.create}'s
    per-domain reuse list and go back with {!Cache.release} when the
    run finishes; a run that raises releases nothing. *)

open Slp_ir

type result = { counters : Counters.t; memory : Memory.t }

val run_scalar :
  ?cores:int -> ?seed:int -> ?memory:Memory.t -> ?profile:Slp_obs.Profile.t ->
  ?pool:Dpool.t -> machine:Slp_machine.Machine.t -> Program.t -> result
(** Compile and run a scalar program; multicore semantics (first
    top-level loop partitioned, contention on the memory system,
    cycles = slowest core) mirror {!Scalar_exec.run_interpreter}.

    With [?pool] (and [cores > 1]) the per-core legs execute on real
    OCaml domains and are merged deterministically in core order, so
    counters and cycles are bit-identical to the sequential
    simulation; profiling and armed fault injection observe global
    state per access and silently force the sequential legs.

    With [?profile], every statement closure is bracketed with a cycle
    delta and the cache observer, attributing all charged cycles and
    cache accesses to statement ids.  On a single-core run the per-key
    cycle sums equal [Counters.total_cycles] exactly; on multicore
    they sum to the per-core total over all cores (reported cycles are
    the slowest core's).  Profiling does not perturb counters, cycles,
    or memory contents. *)

val scalar_final_memory :
  ?cores:int -> ?seed:int -> machine:Slp_machine.Machine.t -> Program.t -> Memory.t
(** The final memory of {!run_scalar} on a fresh memory initialised
    from [seed], computed by a values-only run: bit-identical arrays
    and scalars ({!Memory.equal}), the same {!Trap.Trap} on a faulting
    program, and an armed injected fault fires on the same access (the
    closures tick where a timed run calls {!Cache.access}).  Its
    states are built exactly like a timed run's, cache included; it
    never runs on a domain pool.  For callers that read only the final
    memory, such as the scalar-reference check. *)

val vector_final_memory :
  ?cores:int -> ?seed:int -> ?memory:Memory.t -> machine:Slp_machine.Machine.t ->
  Visa.program -> Memory.t
(** The final memory of {!run_vector}, computed by a values-only run
    (as {!scalar_final_memory}): bit-identical arrays and scalars, the
    same {!Trap.Trap} or [Invalid_argument] at the same access, and an
    armed fault fires on the same access. *)

val run_vector :
  ?cores:int -> ?seed:int -> ?memory:Memory.t -> ?profile:Slp_obs.Profile.t ->
  ?origins:Slp_obs.Profile.key array list -> ?pool:Dpool.t ->
  machine:Slp_machine.Machine.t -> Visa.program -> result
(** Compile and run a vector program; setup replication and multicore
    semantics mirror {!Vector_exec.run_interpreter} ([?pool] as in
    {!run_scalar}).  [?origins] maps instructions
    back to source statements for [?profile]: one key array per
    [Visa.Block] of the body in pre-order (as produced by
    [Lower.lower_with_origins] and transformed by
    [Regalloc.program_with_origins]); instructions beyond the recorded
    origins fall back to opcode keys, and setup instructions are
    attributed to [Setup]. *)

val run_timing :
  ?scalar_layout:(string * int) list -> machine:Slp_machine.Machine.t -> Visa.program ->
  Counters.t
(** The counters of a one-core {!run_vector} of the program on a fresh
    memory built with [scalar_layout] (a scalar program's
    {!Visa.of_program} image takes none), bit for bit, from a
    timing-only run: the same {!Trap.Trap} at the same access, and an
    armed fault fires on the same access.  A program whose lane checks
    cannot be proved, or that spills, runs timed; so does one whose
    accesses fail to link, which then raises as the timed run does. *)

val timing_fallbacks : unit -> int
(** How many {!run_timing} calls so far, in this process, ran on the
    timed engine. *)

val forwarded_iterations : unit -> int
(** How many loop iterations so far, in this process, one-core timed
    and timing-only runs fast-forwarded: their counts and cycles were
    added from the first steady warm-up iteration's instead of
    simulated.  Warm-up iteration k (k <= L, L1 = level 1) is steady
    when it missed no line at cache level k, and iteration L + 1
    always is; a fast-forwarded inner loop's skipped iterations repeat
    its steady one, so the rule stays exact for the loops around it. *)

val settled_iterations : unit -> int
(** How many loop iterations so far, in this process, one-core timed
    and values-only runs skipped because their loop settled: their
    values were not computed. *)

val chunk_ranges : lo:int -> hi:int -> step:int -> cores:int -> (int * int) list
(** Split [lo, hi) into [cores] contiguous step-aligned ranges. *)

type privatizer = {
  p_enter : int -> unit;
  p_exit : int -> unit;
  p_finish : unit -> unit;
}
(** Scalar-store privatization + reduction merge for the reference
    interpreters' sequential chunked legs — the same semantics the
    engine's [exec_cores] applies, so interpreter and engine stay
    bit-identical.  [p_enter core] restores the entry snapshot of
    [Memory.scalar_values] and seeds recognised reduction slots with
    their operator identities; [p_exit core] snapshots the core's
    partials; [p_finish] blits non-empty cores' partials back in core
    order and folds each reduction slot as
    [entry ⊕ partial_0 ⊕ partial_1 ⊕ …] over non-empty cores.  All
    no-ops for a [Serial] verdict. *)

val make_privatizer :
  memory:Memory.t ->
  ranges:(int * int) list ->
  verdict:Slp_depend.Depend.verdict ->
  privatizer
(** [verdict] is {!Parcheck.analyze} of the program (of its
    {!Visa.of_program} image for a scalar one), the verdict the engine
    acts on.  Pre-register every scalar name the program mentions (see
    {!program_footprint}) before calling — the snapshot is taken
    against the live backing store. *)

val program_footprint : Visa.program -> int * int * string list
(** One more than the highest register number and than the highest
    spill slot the program names (0 when it names none) — the sizes of
    a dense register file and spill arena — and every scalar name its
    instructions mention.  The interpreters register those names
    before snapshotting [Memory.scalar_values]: the backing store is
    replaced when a slot is first created, so privatized copies must
    be taken after all names exist. *)

val program_lane_stride : Visa.program -> int
(** The widest lane count any instruction can produce (at least 1) —
    the per-register pitch of the flat register file. *)
