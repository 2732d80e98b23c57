(** The differential oracle stack.

    A kernel is compiled through {!Slp_pipeline.Pipeline.compile} under
    every requested scheme and machine model with the pass-by-pass
    verifier enabled, then executed; the run fails when

    - the program does not validate (a generator bug),
    - compilation raises (including {!Slp_verify.Verify.Verification_failed}
      — no verifier diagnostic may fire on generator output),
    - execution raises,
    - final array memory or final observable-scalar values diverge
      from the scalar reference execution,
    - simulated cycle counts are not finite, or
    - a one-core run's timing-only counters
      ({!Slp_vm.Engine.run_timing}) differ from its timed counters
      ({!Slp_vm.Counters.equal}): the scalar reference, the [Scalar]
      scheme's prepared program and every vector program.

    "Observable" scalars follow the repository's liveness contract
    ({!Slp_analysis.Liveness}): a scalar is unpacked from vector
    registers only where it is demanded, so the oracle compares a
    scalar's final slot value only when every block defining it must
    materialise it.  The generator routes temporaries into array
    stores (an epilogue block), so scalar dataflow is still checked
    end-to-end through memory even where slots are unspecified.

    Alongside the pass/fail verdict, every run records the cost
    model's predicted scheme ordering next to the measured one so
    cost-model drift can be analysed offline without failing the
    fuzzer. *)

open Slp_ir
module Pipeline = Slp_pipeline.Pipeline

type failure = {
  scheme : string;  (** Scheme name, or ["-"] for program-level failures. *)
  machine : string;
  stage : string;
      (** [validate], [dep-soundness], [compile], [verify], [execute],
          [memory], [scalars], [cycles] or [timing]. *)
  message : string;
}

type drift = {
  machine : string;
  predicted : (string * float) list;
      (** Scheme name -> the plan's
          {!Slp_core.Optimal.modeled_cost} under the machine's
          parameters (every block priced, a block left scalar at its
          exact scalar cost), the price the gap report uses;
          vectorizing schemes only. *)
  measured : (string * float) list;  (** Scheme name -> simulated cycles. *)
}

type outcome = { failures : failure list; drifts : drift list }

val options : Pipeline.options
(** The options of every fuzz compile (a campaign, a replay, the gap
    report's sample): the defaults with the [Optimal] scheme's exact
    search capped at 4,000 steps per block, so that a pathological
    kernel bails to the heuristic, still checked, instead of stalling. *)

val run :
  ?schemes:Pipeline.scheme list ->
  ?mutate:(Slp_vm.Visa.program -> Slp_vm.Visa.program) ->
  Program.t ->
  outcome
(** On the paper's two evaluation machines, with arrays initialised
    from seed 42; every compile runs under {!options}.  [mutate] (identity by
    default) is applied to each compiled vector program before
    execution — the hook used to inject deliberate miscompiles when
    testing the shrinker against the real oracle. *)

val failed : outcome -> bool
val pp_failure : Format.formatter -> failure -> unit

val miscompile : Slp_vm.Visa.program -> Slp_vm.Visa.program
(** A deliberate miscompile for shrinker tests: flips the operator of
    the first vector arithmetic instruction (Add<->Sub, Mul<->Div,
    Min<->Max).  Programs whose vector code contains no arithmetic are
    returned unchanged. *)

