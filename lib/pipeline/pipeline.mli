(** End-to-end compilation pipelines — the five schemes compared in the
    paper's evaluation, plus the exact oracle scheme.

    - [Scalar]: no SLP optimization (the normalisation baseline);
    - [Native]: the conservative contiguous-only vectorizer;
    - [Slp]: Larsen & Amarasinghe PLDI 2000;
    - [Global]: the paper's superword statement generation (stage 1);
    - [Global_layout]: stage 1 plus the data layout optimization
      (stage 2);
    - [Optimal]: exact goSLP-style pack selection by branch-and-bound
      ({!Slp_core.Optimal}) — never worse than any heuristic on the
      modeled cost, used as the test oracle.

    Every scheme shares the same pre-processing (constant folding +
    loop unrolling), code generator, and simulator, so measured
    differences come only from grouping/scheduling/layout decisions —
    mirroring the paper's methodology (§7.1: "both the implementations
    use exactly the same pre-processing steps"). *)

open Slp_ir

type scheme = Scalar | Native | Slp | Global | Global_layout | Optimal

val scheme_name : scheme -> string
(** Display name: ["Global+Layout"]. *)

val all_schemes : scheme list

val scheme_to_string : scheme -> string
(** Command-line and wire token: ["global-layout"]. *)

val scheme_of_string : string -> scheme option
(** Inverse of {!scheme_to_string}; also accepts ["layout"] for
    [Global_layout]. *)

type compiled = {
  scheme : scheme;
  machine : Slp_machine.Machine.t;
  reference : Program.t;  (** Unrolled + folded program (scalar semantics). *)
  vector : Slp_vm.Visa.program option;  (** [None] for [Scalar]. *)
  scalar_offsets : (string * int) list;
  plan : Slp_core.Driver.program_plan option;
  compile_seconds : float;  (** Time spent inside the optimizer. *)
  replica_count : int;
  unroll_factor : int;
  spill_stats : Slp_codegen.Regalloc.stats;
      (** Register-allocation outcome of the post-processing pass. *)
  verify_report : Slp_verify.Verify.report option;
      (** Pass-by-pass verifier findings; [None] when compiled with
          [~verify:false].  A returned report never contains errors —
          those raise {!Slp_verify.Verify.Verification_failed} — so
          what remains are warnings. *)
  verify_seconds : float;
      (** Time spent inside the verifier (0 when disabled). *)
  origins : Slp_obs.Profile.key array list;
      (** Profiling origins of the vector body: one key array per
          [Visa.Block] in pre-order, entry [i] naming the statement or
          pack that produced instruction [i] (spills and reloads
          inherit the origin of the instruction that forced them).
          Empty for [Scalar]. *)
  solver_bails : Slp_util.Slp_error.t list;
      (** Advisory [BAIL15-optimal] records from the [Optimal] scheme:
          one per block whose exact search ran out of solver fuel and
          fell back to the holistic heuristic.  The compile itself
          still succeeds (the result is not degraded), so these never
          appear in {!resilient.bailouts}.  Empty for every other
          scheme. *)
}

val params_of_machine : Slp_machine.Machine.t -> Slp_core.Cost.params
(** The cost-model parameters the compile derives from a machine model
    (memory operations priced at an L1 hit).  Exposed so reports and
    tests can price plans exactly as the pipeline's gate does. *)

(** {1 Compile options}

    The settings that change what a compile produces, in one record,
    so that every scheme compiles under the same explicit settings and
    a caller cannot drop or re-key one of them on the way down.  The
    compile service keys its cache on the resolved value
    ({!Slp_serve.Ckey}). *)

type options = {
  grouping : Slp_core.Grouping.options;  (** [Global] and [Global_layout]'s grouper. *)
  schedule : Slp_core.Schedule.options;  (** Their scheduler. *)
  register_reuse : bool;
      (** Lowering keeps superwords in vector registers across
          statements. *)
  max_steps : int option;
      (** Independent step budgets of the grouping and scheduling
          passes; exhaustion raises {!Slp_util.Slp_error.Error} with
          code [Fuel_exhausted].  [None]: unbounded. *)
  solver_steps : int;
      (** Per-block budget of the [Optimal] scheme's exact search;
          exhaustion falls back to the heuristic, with a [BAIL15]
          record in [compiled.solver_bails], and the compile succeeds. *)
}

val default_options : options
(** The paper's configuration: {!Slp_core.Grouping.default_options},
    {!Slp_core.Schedule.default_options}, register reuse on, no step
    budget, and {!Slp_core.Optimal.default_solver_steps}. *)

val default_unroll : Slp_machine.Machine.t -> int
(** The unroll factor a compile uses when none is given: the machine's
    f64 lane count ([simd_bits/64]), which exactly fills the datapath
    for double kernels and half-fills it for floats. *)

val stage_hook_points : string list
(** The names passed to [compile ~on_stage], in pipeline order:
    ["prepare"], ["plan"], ["layout"], ["lower"], ["regalloc"],
    ["verify"].  The seeded fault-injection harness iterates this
    list. *)

val compile :
  ?unroll:int ->
  ?options:options ->
  ?verify:bool ->
  ?on_stage:(string -> unit) ->
  ?deadline:Slp_util.Slp_error.Deadline.t ->
  ?obs:Slp_obs.Obs.t ->
  scheme:scheme ->
  machine:Slp_machine.Machine.t ->
  Program.t ->
  compiled
(** [options] (default {!default_options}) holds every setting that
    changes the result but the unroll factor.

    [unroll] (default {!default_unroll}) changes the result too, but
    stays an argument: its default depends on the machine, which
    {!default_options} cannot know, and benchmark drivers pass it by
    label.  The other arguments only observe or limit a run.

    [verify] (default true) runs the {!Slp_verify} checkers after
    every stage — prepared IR, plan (pack/schedule legality), lowered
    Visa, allocated Visa — and raises
    {!Slp_verify.Verify.Verification_failed} on any error-severity
    finding.  Disable inside benchmark loops.

    [on_stage] is called with each of {!stage_hook_points} just before
    the stage runs; an exception raised from the hook aborts the
    compile (the fault-injection harness's entry point).

    [deadline] enforces a per-job wall-clock budget cooperatively: it
    is checked at every stage boundary and every few hundred fuel
    ticks inside grouping/scheduling, raising
    {!Slp_util.Slp_error.Error} with code [Deadline_exceeded]
    (BAIL16).  The compile service and [slpc --timeout] build one over
    {!Slp_obs.Clock.now}.

    [obs] (default {!Slp_obs.Obs.none}, a no-op) attaches the
    observability bundle: every stage of {!stage_hook_points} (plus
    the [Global_layout] measured arbitration, as ["arbitrate"]) runs
    inside a trace span, the optimizer emits structured remarks, and
    lowering records per-instruction profiling origins. *)

type exec_result = {
  counters : Slp_vm.Counters.t;
  correct : bool;
      (** Vectorized memory state matches scalar execution (always
          true for [Scalar]). *)
}
(** Deliberately without the final memory: callers that keep many
    results (a benchmark's whole timed window) would otherwise hold
    every kernel's arrays.  {!execute_with_memory} returns it beside
    the result instead. *)

val execute :
  ?cores:int ->
  ?seed:int ->
  ?check:bool ->
  ?obs:Slp_obs.Obs.t ->
  ?pool:Slp_vm.Dpool.t ->
  compiled ->
  exec_result
(** The library's one execute path.  Without a vector program the
    measured run is the scalar reference itself; otherwise the vector
    program runs on a fresh memory with [compiled.scalar_offsets] and
    arrays initialised from [seed] (default 42).

    [check] (default true) also runs the scalar reference, at the same
    [cores] (default 1), and compares final memories: the reference's
    arrays ({!Slp_vm.Memory.same_contents}) and its observable scalars
    ({!Slp_analysis.Liveness.observable_scalars}, such as a reduction's
    live-out sum), both within 1e-9.  The reference is a values-only
    run ({!Slp_vm.Scalar_exec.final_memory}): no cache simulation,
    counters or cycles, so it costs well under a timed run.  Disable
    it inside benchmark loops.

    [pool]: with [cores > 1], simulate the cores on real OCaml domains
    (see {!Slp_vm.Engine.run_vector}); counters are bit-identical to
    the sequential simulation.

    [obs]: the run executes inside an ["execute"] span, and when the
    bundle carries a profiler the measured run (vector, or scalar for
    [Scalar]) attributes cycles and cache accesses per statement/pack
    via [compiled.origins].  The correctness reference run is never
    profiled. *)

val execute_with_memory :
  ?cores:int ->
  ?seed:int ->
  ?check:bool ->
  ?obs:Slp_obs.Obs.t ->
  ?pool:Slp_vm.Dpool.t ->
  compiled ->
  exec_result * Slp_vm.Memory.t
(** {!execute}, plus the measured run's final memory (the service
    digests it; the fault harness compares it with an independent
    oracle). *)

val timing : compiled -> Slp_vm.Counters.t
(** The counters of [execute ~cores:1 ~check:false], bit for bit, from
    the engine's timing-only run ({!Slp_vm.Engine.run_timing}): the
    measured run's cache accesses and costs without its values.  For
    callers that read only cycles or counters; the [Global_layout]
    arbitration times both variants this way. *)

(** {1 Fault-tolerant compilation}

    The resilient entry points never raise: any failure in the compile
    or execute path — a pack that will not schedule, a layout plan out
    of sync, a verifier rejection, an exhausted step budget, an
    injected fault — degrades the kernel to verified scalar code and
    is reported as a structured bailout. *)

val error_of_exn : exn -> Slp_util.Slp_error.t
(** Classify an exception escaping the compile/execute path: typed
    errors pass through, verifier rejections become [BAIL10], VM traps
    [BAIL12], frontend errors [BAIL01]/[BAIL02], anything else
    [BAIL13]. *)

type bailout = {
  kernel : string;
  scheme : scheme;  (** The scheme that was attempted, not the fallback. *)
  machine : string;
  error : Slp_util.Slp_error.t;
}

val bailout_report_json : bailout list -> string
(** The machine-readable bailout report written by
    [slpc --bailout-report] and the harness runner. *)

type resilient = {
  result : compiled;
  degraded : bool;  (** The requested scheme failed; [result] is scalar. *)
  bailouts : bailout list;  (** Empty iff [degraded] is false. *)
}

val compile_resilient :
  ?unroll:int ->
  ?options:options ->
  ?verify:bool ->
  ?on_stage:(string -> unit) ->
  ?deadline:Slp_util.Slp_error.Deadline.t ->
  ?obs:Slp_obs.Obs.t ->
  scheme:scheme ->
  machine:Slp_machine.Machine.t ->
  Program.t ->
  resilient
(** Like {!compile}, but a failing kernel degrades gracefully: the
    kernel is recompiled under [Scalar] (without hooks, fuel,
    [deadline], or [obs] — the fallback must not inherit the failure
    trigger), and if even that fails the unprocessed program ships
    with no vector code.  An unset [options.max_steps] is bounded at
    [2_000_000].  Never raises. *)

val execute_resilient :
  ?cores:int ->
  ?seed:int ->
  ?check:bool ->
  compiled ->
  exec_result * Slp_util.Slp_error.t option
(** Like {!execute}, but a trap during vectorized execution (including
    an injected one-shot VM fault) falls back to a clean scalar run of
    the reference program; the classified error rides along.  Never
    raises. *)
