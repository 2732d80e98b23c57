(* The heuristic-gap report: how close each heuristic scheme comes to
   the exact optimum of the modeled cost.

   The [Optimal] scheme (lib/slp_core/optimal.ml) solves pack
   selection exactly, so the difference between a heuristic's modeled
   cost and the optimal modeled cost is the true price of that
   heuristic's approximations.  The report measures it two ways: on
   the 16 suite kernels x both evaluation machines (with measured
   cycles alongside the modeled costs), and on a drawn fuzz corpus
   where only modeled costs are compared (execution would dominate the
   runtime without sharpening the question). *)

module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Suite = Slp_benchmarks.Suite
module Counters = Slp_vm.Counters
module Cost = Slp_core.Cost
module Optimal = Slp_core.Optimal
module Block = Slp_ir.Block
module J = Slp_obs.Json

(* Every scheme the optimum is compared against. *)
let heuristics =
  [
    Pipeline.Scalar;
    Pipeline.Native;
    Pipeline.Slp;
    Pipeline.Global;
    Pipeline.Global_layout;
  ]

type scheme_gap = {
  g_scheme : string;
  g_cost : float;
  g_cycles : float;
  g_gap : float;  (** [g_cost - optimal cost]; >= 0 when comparable. *)
  g_comparable : bool;
}

type entry = {
  e_kernel : string;
  e_suite : string;
  e_machine : string;
  e_optimal_cost : float;
  e_optimal_cycles : float;
  e_compile_seconds : float;  (** Optimal-scheme compile time. *)
  e_solver_bails : int;
  e_schemes : scheme_gap list;
}

(* An uncommitted (or absent) plan prices at the exact scalar cost of
   the prepared program — the same fallback [Optimal.modeled_cost]
   uses per block, so costs are comparable across schemes. *)
let scalar_modeled_cost ~params prog =
  List.fold_left
    (fun acc (block : Block.t) ->
      List.fold_left
        (fun a s -> a +. Cost.scalar_stmt_cost params s)
        acc block.Block.stmts)
    0.0 (Slp_ir.Program.blocks prog)

let modeled_cost ~params (c : Pipeline.compiled) =
  match c.Pipeline.plan with
  | Some plan -> Optimal.modeled_cost ~params plan
  | None -> scalar_modeled_cost ~params c.Pipeline.reference

(* The optimum, and each scheme's compile with its modeled cost, its
   gap to the optimum, and whether the two compare: the layout stage
   rewrites array placement, which the block-local cost model cannot
   see, so a [Global_layout] compile compares only when the stage was
   skipped. *)
let against_optimum ~params ~compile schemes =
  let opt = compile Pipeline.Optimal in
  let opt_cost = modeled_cost ~params opt in
  ( opt,
    opt_cost,
    List.map
      (fun scheme ->
        let c = compile scheme in
        let cost = modeled_cost ~params c in
        let comparable =
          scheme <> Pipeline.Global_layout
          || (c.Pipeline.replica_count = 0 && c.Pipeline.scalar_offsets = [])
        in
        (scheme, c, cost, cost -. opt_cost, comparable))
      schemes )

let cycles_of c = Counters.total_cycles (Pipeline.timing c)

let suite_entry ~machine (b : Suite.t) =
  let prog = Suite.program b in
  let compile scheme =
    Pipeline.compile ~unroll:b.Suite.unroll ~verify:false ~scheme ~machine prog
  in
  let opt, opt_cost, gaps =
    against_optimum ~params:(Pipeline.params_of_machine machine) ~compile heuristics
  in
  {
    e_kernel = b.Suite.name;
    e_suite = Suite.suite_name b.Suite.suite;
    e_machine = machine.Machine.name;
    e_optimal_cost = opt_cost;
    e_optimal_cycles = cycles_of opt;
    e_compile_seconds = opt.Pipeline.compile_seconds;
    e_solver_bails = List.length opt.Pipeline.solver_bails;
    e_schemes =
      List.map
        (fun (scheme, c, cost, gap, comparable) ->
          {
            g_scheme = Pipeline.scheme_name scheme;
            g_cost = cost;
            g_cycles = cycles_of c;
            g_gap = gap;
            g_comparable = comparable;
          })
        gaps;
  }

let machines = [ Machine.intel_dunnington; Machine.amd_phenom_ii ]

let suite_report () =
  let entries =
    List.concat_map
      (fun (b : Suite.t) -> List.map (fun machine -> suite_entry ~machine b) machines)
      Suite.all
  in
  let seconds =
    List.fold_left (fun acc e -> acc +. e.e_compile_seconds) 0.0 entries
  in
  (entries, seconds)

(* -- fuzz-corpus sample ------------------------------------------------ *)

type fuzz_scheme_stat = {
  f_scheme : string;
  f_improved : int;  (** Cases where the optimum strictly beats the scheme. *)
  f_total_gap : float;
  f_max_gap : float;
}

type fuzz_summary = {
  f_cases : int;
  f_bailed : int;  (** Cases where at least one block hit the solver budget. *)
  f_violations : int;  (** Comparable cases where a heuristic beat "optimal". *)
  f_stats : fuzz_scheme_stat list;
}

let fuzz_heuristics =
  [ Pipeline.Native; Pipeline.Slp; Pipeline.Global; Pipeline.Global_layout ]

let default_fuzz_cases = 1000
let fuzz_seed = 2024

(* Modeled costs only, single machine, under the fuzz oracle's
   options: the corpus exists to expose heuristic/optimal cost gaps
   (and would flag any dominance violation), not to re-run the
   differential execution oracle the fuzzer already applies. *)
let fuzz_sample ?(cases = default_fuzz_cases) () =
  let machine = Machine.intel_dunnington in
  let params = Pipeline.params_of_machine machine in
  let rng = Slp_util.Prng.create fuzz_seed in
  let bailed = ref 0 and violations = ref 0 in
  let stats =
    ref
      (List.map
         (fun scheme ->
           {
             f_scheme = Pipeline.scheme_name scheme;
             f_improved = 0;
             f_total_gap = 0.0;
             f_max_gap = 0.0;
           })
         fuzz_heuristics)
  in
  for i = 0 to cases - 1 do
    let prog =
      Slp_fuzz.Gen.program
        ~name:(Printf.sprintf "gap%04d" i)
        (Slp_util.Prng.create (Slp_util.Prng.int rng 1_000_000_000))
    in
    let compile scheme =
      Pipeline.compile ~verify:false ~options:Slp_fuzz.Oracle.options ~scheme ~machine
        prog
    in
    let opt, _, gaps = against_optimum ~params ~compile fuzz_heuristics in
    if opt.Pipeline.solver_bails <> [] then incr bailed;
    stats :=
      List.map2
        (fun st (_, _, _, gap, comparable) ->
          if not comparable then st
          else begin
            if gap < -1e-6 then incr violations;
            {
              st with
              f_improved = (st.f_improved + if gap > 1e-9 then 1 else 0);
              f_total_gap = st.f_total_gap +. Float.max 0.0 gap;
              f_max_gap = Float.max st.f_max_gap gap;
            }
          end)
        !stats gaps
  done;
  { f_cases = cases; f_bailed = !bailed; f_violations = !violations; f_stats = !stats }

(* -- JSON -------------------------------------------------------------- *)

let entry_json e =
  J.Obj
    [
      ("kernel", J.Str e.e_kernel);
      ("suite", J.Str e.e_suite);
      ("machine", J.Str e.e_machine);
      ( "optimal",
        J.Obj
          [
            ("modeled_cost", J.Num e.e_optimal_cost);
            ("cycles", J.Num e.e_optimal_cycles);
            ("compile_seconds", J.Num e.e_compile_seconds);
            ("solver_bails", J.Num (float_of_int e.e_solver_bails));
          ] );
      ( "schemes",
        J.Obj
          (List.map
             (fun g ->
               ( g.g_scheme,
                 J.Obj
                   [
                     ("modeled_cost", J.Num g.g_cost);
                     ("cycles", J.Num g.g_cycles);
                     ("gap", J.Num g.g_gap);
                     ("comparable", J.Bool g.g_comparable);
                   ] ))
             e.e_schemes) );
    ]

let fuzz_json f =
  J.Obj
    [
      ("cases", J.Num (float_of_int f.f_cases));
      ("seed", J.Num (float_of_int fuzz_seed));
      ( "solver_steps",
        J.Num (float_of_int Slp_fuzz.Oracle.options.Pipeline.solver_steps) );
      ("bailed_cases", J.Num (float_of_int f.f_bailed));
      ("dominance_violations", J.Num (float_of_int f.f_violations));
      ( "schemes",
        J.Obj
          (List.map
             (fun s ->
               ( s.f_scheme,
                 J.Obj
                   [
                     ("improved_cases", J.Num (float_of_int s.f_improved));
                     ("total_gap", J.Num s.f_total_gap);
                     ("max_gap", J.Num s.f_max_gap);
                   ] ))
             f.f_stats) );
    ]

let to_json ~entries ~suite_seconds ~fuzz =
  J.Obj
    [
      ("suite_compile_seconds", J.Num suite_seconds);
      ("kernels", J.Arr (List.map entry_json entries));
      ("fuzz", fuzz_json fuzz);
    ]

(* One human line per machine for the experiments CLI. *)
let summary_lines entries =
  List.map
    (fun machine ->
      let on_machine =
        List.filter (fun e -> e.e_machine = machine.Machine.name) entries
      in
      let tight =
        List.length
          (List.filter
             (fun e ->
               List.for_all
                 (fun g ->
                   (not g.g_comparable)
                   || g.g_scheme = "Scalar"
                   || g.g_gap <= 1e-9)
                 e.e_schemes)
             on_machine)
      in
      let bails =
        List.fold_left (fun acc e -> acc + e.e_solver_bails) 0 on_machine
      in
      Printf.sprintf
        "%s: every heuristic already optimal on %d/%d kernels; %d solver bail(s)"
        machine.Machine.name tight (List.length on_machine) bails)
    machines
