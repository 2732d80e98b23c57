open Slp_ir
module E = Slp_util.Slp_error
module M = Slp_machine.Machine
module P = Slp_pipeline.Pipeline
module Trap = Slp_vm.Trap
module Memory = Slp_vm.Memory

type point =
  | Stage of string
  | Fuel
  | Solver_fuel
  | Vm_memory of int
  | Vm_cache of int

let point_name = function
  | Stage s -> "stage:" ^ s
  | Fuel -> "fuel"
  | Solver_fuel -> "solver-fuel"
  | Vm_memory n -> Printf.sprintf "vm-memory:%d" n
  | Vm_cache n -> Printf.sprintf "vm-cache:%d" n

(* Every compile-stage hook, the step budget, the exact pack solver's
   budget, and one-shot VM faults a few accesses into execution.  The
   access counts are arbitrary small primes — any point inside the run
   exercises the same recovery path. *)
let all_points =
  List.map (fun s -> Stage s) P.stage_hook_points
  @ [ Fuel; Solver_fuel; Vm_memory 5; Vm_cache 13 ]

let pass_of_stage = function
  | "prepare" -> E.Transform
  | "plan" -> E.Grouping
  | "layout" -> E.Layout
  | "lower" -> E.Lowering
  | "regalloc" -> E.Regalloc
  | "verify" -> E.Verification
  | _ -> E.Pipeline

(* The reason code a fault injected at each point must surface as in
   the bailout report. *)
let expected_code = function
  | Stage "prepare" -> E.Unsupported
  | Stage "plan" -> E.Grouping_failed
  | Stage "layout" -> E.Layout_failed
  | Stage "lower" -> E.Lowering_failed
  | Stage "regalloc" -> E.Regalloc_failed
  | Stage "verify" -> E.Verify_rejected
  | Stage _ -> E.Injected
  | Fuel -> E.Fuel_exhausted
  | Solver_fuel -> E.Optimal_bailed
  | Vm_memory _ -> E.Vm_trap
  | Vm_cache _ -> E.Injected

(* A stage injector simulates the target stage failing: it raises the
   stage's own typed error from the hook. *)
let injector ~target name =
  if name = target then
    raise
      (E.Error
         (E.make ~pass:(pass_of_stage name)
            (expected_code (Stage name))
            (Printf.sprintf "injected fault at stage %s" name)))

type outcome = {
  kernel : string;
  machine : string;
  point : point;
  degraded : bool;
  codes : string list;  (** Wire names of every reported error. *)
  expected : string;
  code_seen : bool;
  scalar_identical : bool;
  ok : bool;
}

(* The final memory of one unchecked run: with no reference run beside
   it, an armed one-shot VM fault counts only this run's accesses. *)
let final_memory ~seed c = snd (P.execute_with_memory ~seed ~check:false c)

let run_case ~machine ~point (prog : Program.t) =
  let scheme = P.Global_layout and seed = 42 in
  (* Independent scalar oracle over the original program — a
     values-only run, computed before any fault is armed. *)
  let oracle = Slp_vm.Scalar_exec.final_memory ~seed ~machine prog in
  let r =
    match point with
    | Stage target ->
        P.compile_resilient ~on_stage:(injector ~target) ~scheme ~machine prog
    | Fuel ->
        P.compile_resilient
          ~options:{ P.default_options with P.max_steps = Some 0 }
          ~scheme ~machine prog
    | Solver_fuel ->
        (* A zero solver budget starves the exact scheme's search on
           every block.  The expected recovery is *advisory*: each
           block bails to the holistic heuristic under BAIL15 and the
           compile itself still succeeds (not degraded). *)
        P.compile_resilient
          ~options:{ P.default_options with P.solver_steps = 0 }
          ~scheme:P.Optimal ~machine prog
    | Vm_memory _ | Vm_cache _ ->
        (* VM faults are armed around execution only: the layout
           scheme's measured probe runs vector code during compile,
           and a fault there would be a compile-time bailout instead
           of the execution-path recovery under test. *)
        P.compile_resilient ~scheme ~machine prog
  in
  let exec_errors = ref [] in
  let fired = ref false in
  let armed f =
    match point with
    | Vm_memory n -> Trap.with_fault ~fault:Trap.Memory_fault ~after:n f
    | Vm_cache n -> Trap.with_fault ~fault:Trap.Cache_fault ~after:n f
    | Stage _ | Fuel | Solver_fuel -> f ()
  in
  let memory =
    match armed (fun () -> final_memory ~seed r.P.result) with
    | m -> m
    | exception exn ->
        fired := true;
        exec_errors := P.error_of_exn exn :: !exec_errors;
        (* The injected fault is one-shot and has disarmed itself:
           the scalar re-run of the reference is clean. *)
        final_memory ~seed { r.P.result with P.scheme = P.Scalar; vector = None }
  in
  let scalar_identical =
    Memory.same_contents oracle memory
    && Memory.same_scalars
         ~names:(Slp_analysis.Liveness.observable_scalars prog)
         oracle memory
  in
  let errors =
    List.map (fun (b : P.bailout) -> b.P.error) r.P.bailouts
    @ r.P.result.P.solver_bails @ List.rev !exec_errors
  in
  let codes = List.map (fun (e : E.t) -> E.code_name e.E.code) errors in
  let expected = E.code_name (expected_code point) in
  let code_seen = List.mem expected codes in
  let recovered =
    match point with
    | Stage _ | Fuel -> r.P.degraded && code_seen
    | Solver_fuel ->
        (* Advisory bail: the compile must NOT degrade, yet every
           block with statements reports BAIL15. *)
        (not r.P.degraded) && code_seen
    | Vm_memory _ | Vm_cache _ ->
        (* A one-shot fault set past the program's total access count
           never fires; nothing needed recovering, so only the
           differential check applies. *)
        (not !fired) || code_seen
  in
  {
    kernel = prog.Program.name;
    machine = machine.M.name;
    point;
    degraded = r.P.degraded;
    codes;
    expected;
    code_seen;
    scalar_identical;
    ok = recovered && scalar_identical;
  }

let default_machines = [ M.intel_dunnington; M.amd_phenom_ii ]

let run_matrix () =
  List.concat_map
    (fun bench ->
      let prog = Slp_benchmarks.Suite.program bench in
      List.concat_map
        (fun machine ->
          List.map (fun point -> run_case ~machine ~point prog) all_points)
        default_machines)
    Slp_benchmarks.Suite.all

(* The fault-enabled fuzz campaign: generated kernels, a fault point
   drawn per case, and the same never-raise + scalar-identity
   obligations as the matrix. *)
let run_fuzz ?(cases = 300) ~seed () =
  let rng = Slp_util.Prng.create seed in
  let points = Array.of_list all_points in
  List.init cases (fun i ->
      let prog =
        Slp_fuzz.Gen.program ~name:(Printf.sprintf "fault%04d" i)
          (Slp_util.Prng.create (Slp_util.Prng.int rng 1_000_000_000))
      in
      let machine =
        List.nth default_machines
          (Slp_util.Prng.int rng (List.length default_machines))
      in
      let point = points.(Slp_util.Prng.int rng (Array.length points)) in
      run_case ~machine ~point prog)

let all_ok outcomes = List.for_all (fun o -> o.ok) outcomes
let failures outcomes = List.filter (fun o -> not o.ok) outcomes

let outcome_to_json o =
  Printf.sprintf
    "{\"kernel\": \"%s\", \"machine\": \"%s\", \"point\": \"%s\", \"degraded\": \
     %b, \"codes\": [%s], \"expected\": \"%s\", \"code_seen\": %b, \
     \"scalar_identical\": %b, \"ok\": %b}"
    (E.json_escape o.kernel) (E.json_escape o.machine)
    (E.json_escape (point_name o.point))
    o.degraded
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "\"%s\"" (E.json_escape c)) o.codes))
    (E.json_escape o.expected) o.code_seen o.scalar_identical o.ok

let report_json outcomes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"cases\": %d, \"failures\": %d, \"outcomes\": ["
       (List.length outcomes)
       (List.length (failures outcomes)));
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (outcome_to_json o))
    outcomes;
  Buffer.add_string buf "]}";
  Buffer.contents buf
