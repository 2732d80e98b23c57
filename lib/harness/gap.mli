(** The heuristic-gap report ([experiments --gap-report]).

    Compares every heuristic scheme's modeled cost against the exact
    optimum computed by the [Optimal] scheme
    ({!Slp_core.Optimal}) — per suite kernel x machine with measured
    cycles alongside, plus a drawn fuzz-corpus sample where only
    modeled costs are compared.  Emitted as JSON and uploaded as a CI
    artifact; any negative comparable gap is a dominance violation
    (the exact solver lost to a heuristic) and fails the differential
    tests. *)

type scheme_gap = {
  g_scheme : string;
  g_cost : float;  (** The scheme's modeled cost. *)
  g_cycles : float;  (** Measured cycles on the simulator. *)
  g_gap : float;  (** [g_cost - optimal cost]; >= 0 when comparable. *)
  g_comparable : bool;
      (** False only for a layout-transformed [Global_layout] compile,
          whose cost the block-local model cannot price. *)
}

type entry = {
  e_kernel : string;
  e_suite : string;
  e_machine : string;
  e_optimal_cost : float;
  e_optimal_cycles : float;
  e_compile_seconds : float;  (** Optimal-scheme compile time. *)
  e_solver_bails : int;  (** Blocks that hit the solver budget (BAIL15). *)
  e_schemes : scheme_gap list;
}

val suite_report : unit -> entry list * float
(** All suite kernels x both evaluation machines, compiled under
    {!Slp_pipeline.Pipeline.default_options}, plus the total
    Optimal-scheme compile seconds — the figure the CI smoke guard
    budgets. *)

type fuzz_scheme_stat = {
  f_scheme : string;
  f_improved : int;  (** Cases where the optimum strictly beats the scheme. *)
  f_total_gap : float;
  f_max_gap : float;
}

type fuzz_summary = {
  f_cases : int;
  f_bailed : int;  (** Cases where at least one block hit the solver budget. *)
  f_violations : int;
      (** Comparable cases where a heuristic priced below "optimal" —
          always 0 unless the dominance guarantee is broken. *)
  f_stats : fuzz_scheme_stat list;
}

val fuzz_sample : ?cases:int -> unit -> fuzz_summary
(** Generated kernels (drawn from seed 2024) on the Intel machine,
    compiled under {!Slp_fuzz.Oracle.options}, modeled costs only
    (execution is the fuzzer's job, not the gap report's). *)

val to_json :
  entries:entry list ->
  suite_seconds:float ->
  fuzz:fuzz_summary ->
  Slp_obs.Json.t

val summary_lines : entry list -> string list
(** One human-readable line per machine for the CLI. *)
