(** Deterministic seeded fault injection for the resilient pipeline.

    Each case injects exactly one failure — at a compile-stage hook
    point, by exhausting the per-pass step budget, or as a one-shot VM
    memory/cache fault during execution — and then checks the three
    resilience obligations: nothing escapes as an exception, the
    failure surfaces under its catalogued [BAILnn] reason code, and
    the kernel's final memory is identical to an independent scalar
    run of the original program. *)

type point =
  | Stage of string  (** A {!Slp_pipeline.Pipeline.stage_hook_points} name. *)
  | Fuel  (** Compile under a zero step budget. *)
  | Solver_fuel
      (** Compile the [Optimal] scheme under a zero solver budget:
          every block must bail to the heuristic under BAIL15 while
          the compile itself stays non-degraded. *)
  | Vm_memory of int  (** One-shot memory trap after [n] accesses. *)
  | Vm_cache of int  (** One-shot cache-model fault after [n] accesses. *)

val point_name : point -> string
val all_points : point list
(** Every stage hook point plus [Fuel], [Solver_fuel], [Vm_memory 5],
    [Vm_cache 13]. *)

val expected_code : point -> Slp_util.Slp_error.code
(** The reason code a fault at this point must be reported under. *)

type outcome = {
  kernel : string;
  machine : string;
  point : point;
  degraded : bool;
  codes : string list;  (** Wire names of every reported error. *)
  expected : string;
  code_seen : bool;
  scalar_identical : bool;
      (** The final arrays and observable scalars equal an independent
          scalar run's. *)
  ok : bool;  (** Recovery happened, code matched, memory identical. *)
}

val run_case : machine:Slp_machine.Machine.t -> point:point -> Slp_ir.Program.t -> outcome
(** One kernel, one injection point, under [Global_layout] (the
    deepest pipeline; [Solver_fuel] under [Optimal]).  Never raises. *)

val default_machines : Slp_machine.Machine.t list
(** The two evaluation machines. *)

val run_matrix : unit -> outcome list
(** All 16 suite kernels x all injection points x both machines. *)

val run_fuzz : ?cases:int -> seed:int -> unit -> outcome list
(** Generated kernels with a fault point drawn per case (default 300
    cases); deterministic in [seed]. *)

val all_ok : outcome list -> bool
val failures : outcome list -> outcome list
val outcome_to_json : outcome -> string

val report_json : outcome list -> string
(** The machine-readable report uploaded by the CI fault-smoke job. *)
