open Slp_ir
module E = Slp_util.Slp_error
module M = Slp_machine.Machine
module Config = Slp_core.Config
module Driver = Slp_core.Driver
module Cost = Slp_core.Cost
module Verify = Slp_verify.Verify
module D = Slp_verify.Diagnostic
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark
module Clock = Slp_obs.Clock

type scheme = Scalar | Native | Slp | Global | Global_layout | Optimal

let scheme_name = function
  | Scalar -> "Scalar"
  | Native -> "Native"
  | Slp -> "SLP"
  | Global -> "Global"
  | Global_layout -> "Global+Layout"
  | Optimal -> "Optimal"

let all_schemes = [ Scalar; Native; Slp; Global; Global_layout; Optimal ]

let scheme_to_string = function
  | Scalar -> "scalar"
  | Native -> "native"
  | Slp -> "slp"
  | Global -> "global"
  | Global_layout -> "global-layout"
  | Optimal -> "optimal"

let scheme_of_string = function
  | "layout" -> Some Global_layout
  | s -> List.find_opt (fun sc -> String.equal (scheme_to_string sc) s) all_schemes

type compiled = {
  scheme : scheme;
  machine : M.t;
  reference : Program.t;
  vector : Slp_vm.Visa.program option;
  scalar_offsets : (string * int) list;
  plan : Driver.program_plan option;
  compile_seconds : float;
  replica_count : int;
  unroll_factor : int;
  spill_stats : Slp_codegen.Regalloc.stats;
  verify_report : Slp_verify.Verify.report option;
  verify_seconds : float;
  origins : Slp_obs.Profile.key array list;
  solver_bails : E.t list;
}

(* The gate should predict the simulator: derive its per-instruction
   costs from the machine model, with memory operations priced at an
   L1-hit (the common case inside a vectorizable loop). *)
let params_of_machine (m : M.t) =
  let c = m.M.costs in
  let l1 = float_of_int m.M.l1.M.latency in
  {
    Cost.scalar_op = float_of_int c.M.scalar_op;
    vector_op = float_of_int c.M.vector_op;
    divide = float_of_int c.M.divide;
    square_root = float_of_int c.M.square_root;
    scalar_load = float_of_int c.M.load_issue +. l1;
    scalar_store = float_of_int c.M.store_issue +. l1;
    vector_load = float_of_int c.M.load_issue +. l1;
    vector_store = float_of_int c.M.store_issue +. l1;
    unaligned_extra = 1.0;
    insert = float_of_int c.M.insert;
    extract = float_of_int c.M.extract;
    permute = float_of_int c.M.permute;
    broadcast = float_of_int c.M.broadcast;
  }

let config_of_machine (m : M.t) =
  Config.make ~vector_registers:m.M.vector_registers ~datapath_bits:m.M.simd_bits ()

let query_for ~config (prog : Program.t) =
  let env = prog.Program.env in
  let lanes = max 2 (config.Config.datapath_bits / 64) in
  let liveness = Slp_analysis.Liveness.compute prog in
  fun ({ Driver.block; nest; _ } : Driver.site) ->
    {
      (Cost.default_query ~env ~nest ~lanes) with
      Cost.scalar_live_out = Slp_analysis.Liveness.demanded liveness block;
    }

type options = {
  grouping : Slp_core.Grouping.options;
  schedule : Slp_core.Schedule.options;
  register_reuse : bool;
  max_steps : int option;
  solver_steps : int;
}

let default_options =
  {
    grouping = Slp_core.Grouping.default_options;
    schedule = Slp_core.Schedule.default_options;
    register_reuse = true;
    max_steps = None;
    solver_steps = Slp_core.Optimal.default_solver_steps;
  }

let default_unroll (machine : M.t) = max 1 (machine.M.simd_bits / 64)

type exec_result = { counters : Slp_vm.Counters.t; correct : bool }

(* The one run of a compiled kernel in the library.  The measured run
   is the vector program on a fresh memory with the scalar layout, or
   the reference itself when there is no vector program.  Under
   [check] the scalar reference runs at the same core count, values
   only, and its final arrays and observable scalars must match the
   measured run's.  Only the measured run gets the profiler and the
   domain pool, so attributed cycles describe exactly the run whose
   counters are returned. *)
let run_kernel ?profile ?origins ?pool ~cores ~seed ~check ~machine
    ~scalar_offsets (reference : Program.t) vector =
  match vector with
  | None ->
      let r = Slp_vm.Scalar_exec.run ~cores ~seed ?profile ?pool ~machine reference in
      ( { counters = r.Slp_vm.Scalar_exec.counters; correct = true },
        r.Slp_vm.Scalar_exec.memory )
  | Some vprog ->
      let memory =
        Slp_vm.Memory.create ~scalar_layout:scalar_offsets
          ~env:vprog.Slp_vm.Visa.env ()
      in
      Slp_vm.Memory.init_arrays memory ~seed;
      let r =
        Slp_vm.Vector_exec.run ~cores ~seed ~memory ?profile ?origins ?pool
          ~machine vprog
      in
      let correct =
        (not check)
        ||
        let expected = Slp_vm.Scalar_exec.final_memory ~cores ~seed ~machine reference in
        Slp_vm.Memory.same_contents expected memory
        && Slp_vm.Memory.same_scalars
             ~names:(Slp_analysis.Liveness.observable_scalars reference)
             expected memory
      in
      ({ counters = r.Slp_vm.Vector_exec.counters; correct }, memory)

(* The counters [run_kernel ~cores:1 ~check:false] returns, from the
   engine's timing-only run: no memory values, no register file. *)
let timing_of ~machine ~scalar_offsets (reference : Program.t) = function
  | None -> Slp_vm.Engine.run_timing ~machine (Slp_vm.Visa.of_program reference)
  | Some vprog -> Slp_vm.Engine.run_timing ~scalar_layout:scalar_offsets ~machine vprog

(* Stage hook points, in pipeline order.  [compile ~on_stage] calls
   the hook with each name just before the stage runs — the seeded
   fault-injection harness raises from the hook to simulate that stage
   failing. *)
let stage_hook_points = [ "prepare"; "plan"; "layout"; "lower"; "regalloc"; "verify" ]

let compile ?unroll ?(options = default_options) ?(verify = true) ?on_stage
    ?deadline ?(obs = Obs.none) ~scheme ~machine (prog : Program.t) =
  let stage name =
    (* Cooperative deadline enforcement at every stage boundary; the
       fuel below additionally checks mid-pass. *)
    Option.iter (fun d -> E.Deadline.check d) deadline;
    match on_stage with Some f -> f name | None -> ()
  in
  (* Independent per-pass step budgets from the single user-facing
     knob; [None] means unbounded (the historical behavior).  A
     deadline with no step budget still wants mid-pass checks, so it
     rides on an effectively-unbounded fuel. *)
  let fuel pass =
    match (options.max_steps, deadline) with
    | None, None -> None
    | budget, _ ->
        Some
          (E.Fuel.create ?deadline ~pass
             ~budget:(Option.value budget ~default:max_int)
             ())
  in
  let grouping_fuel = fuel E.Grouping in
  let schedule_fuel = fuel E.Scheduling in
  let unroll_factor = Option.value unroll ~default:(default_unroll machine) in
  let config = config_of_machine machine in
  let params = params_of_machine machine in
  stage "prepare";
  let prepared =
    Obs.span obs "prepare" (fun () ->
        Slp_transform.Simplify.fold_program prog
        |> Slp_transform.Unroll.program ~factor:unroll_factor)
  in
  let t0 = Clock.now () in
  (* Every lowering honours [register_reuse]; Global+Layout's plain
     variant, lowered only for the arbitration, passes [Obs.none]. *)
  let lower ~obs =
    Slp_codegen.Lower.lower_with_origins ~obs ~machine
      ~reuse:options.register_reuse
  in
  (* Advisory bailouts of the exact pack solver: the compile still
     succeeds (the affected blocks carry the heuristic's plan), but the
     BAIL15 records surface on the result for reporting. *)
  let solver_bails = ref [] in
  (* The tail every scheme but [Global_layout] shares: plan under the
     "plan" hook and span, then lower under the "lower" ones. *)
  let plan_then_lower make_plan =
    stage "plan";
    let plan = Obs.span obs "plan" make_plan in
    stage "lower";
    let vec, origins =
      Obs.span obs "lower" (fun () -> lower ~obs plan)
    in
    (Some vec, Some plan, [], 0, origins)
  in
  (* The one block loop: inside the "plan" span every scheme lists its
     sites and maps a per-site planner over them, each site under the
     cost query of its nest. *)
  let env = prepared.Program.env in
  let plan_sites sites plan_site =
    { Driver.program = prepared; plans = List.map plan_site sites }
  in
  let holistic ?obs query site =
    Driver.optimize_block ?obs ~options:options.grouping
      ~schedule_options:options.schedule ?grouping_fuel ?schedule_fuel ~params
      ~env ~config ~query:(query site) site
  in
  (* A baseline is its grouper under the one gate, scheduled the
     Larsen way; it plans silently. *)
  let baseline group query (site : Driver.site) =
    let dep_pairs = site.Driver.deps and block = site.Driver.block in
    Driver.gate ~params ~query:(query site)
      ~schedule:(Slp_baseline.Larsen.schedule ~config)
      site
      (group ~dep_pairs ~env ~config block)
  in
  let vector, plan, scalar_offsets, replica_count, origins =
    match scheme with
    | Scalar -> (None, None, [], 0, [])
    | Native ->
        plan_then_lower (fun () ->
            plan_sites (Driver.sites ~precise:false prepared)
              (baseline Slp_baseline.Native.group (query_for ~config prepared)))
    | Slp ->
        plan_then_lower (fun () ->
            plan_sites (Driver.sites ~precise:false prepared)
              (baseline Slp_baseline.Larsen.group (query_for ~config prepared)))
    | Global ->
        plan_then_lower (fun () ->
            plan_sites (Driver.sites ~precise:true prepared)
              (holistic ~obs (query_for ~config prepared)))
    | Optimal ->
        plan_then_lower (fun () ->
            let query = query_for ~config prepared in
            (* Committed schedules of the baseline heuristics ride
               along as incumbents, so the exact scheme can never end
               up worse than either on the modeled cost — even when a
               block's search bails on fuel.  Their sites are
               syntactic, listed by the same walk as the precise ones,
               so seed k belongs to block k; a baseline that raises on
               any block seeds none. *)
            let syntactic = Driver.sites ~precise:false prepared in
            let seeds group =
              match List.map (baseline group query) syntactic with
              | plans ->
                  List.map (fun (bp : Driver.block_plan) -> Option.to_list bp.Driver.schedule) plans
              | exception _ -> List.map (fun _ -> []) syntactic
            in
            let seeds =
              List.map2 ( @ ) (seeds Slp_baseline.Native.group)
                (seeds Slp_baseline.Larsen.group)
            in
            let bails = ref [] in
            let plan =
              plan_sites
                (List.combine (Driver.sites ~precise:true prepared) seeds)
                (fun (site, seeds) ->
                  let plan, bail, _stats =
                    Slp_core.Optimal.plan_block ~obs ~params ~seeds
                      ~solver_steps:options.solver_steps ?grouping_fuel
                      ?schedule_fuel ~env ~config
                      ~query:(query site) site
                  in
                  Option.iter (fun b -> bails := b :: !bails) bail;
                  plan)
            in
            solver_bails :=
              List.rev_map
                (fun (b : Slp_core.Optimal.bail) -> b.Slp_core.Optimal.error)
                !bails;
            plan)
    | Global_layout ->
        (* Stage 1 planned under a layout-aware cost gate that asks
           the replication rule stage 2 acts on, then stage 2
           applied; the analytic amortisation rule cannot see cache
           footprint effects, so the final arbitration is measured: the
           laid-out variant must actually beat the plain Global variant
           on the simulator, else layout is skipped (the paper:
           "the benefit of layout optimization has to outweigh the
           cost; otherwise we skip the data optimization phase").
           Remarks and per-pass spans follow the layout-aware plan (the
           scheme's primary artifact); the plain variant is planned
           silently, and lowered silently inside the arbitration, the
           only place that needs it.  Both plans share one list of
           precise sites. *)
        stage "plan";
        let plain_plan, plan =
          Obs.span obs "plan" (fun () ->
              let sites = Driver.sites ~precise:true prepared in
              let query = query_for ~config prepared in
              let plain_plan = plan_sites sites (holistic query) in
              let plan =
                plan_sites sites
                  (holistic ~obs (Slp_layout.Array_layout.gate_query prepared query))
              in
              (plain_plan, plan))
        in
        let plain_lowered = lazy (lower ~obs:Obs.none plain_plan) in
        stage "layout";
        let placement, arr =
          Obs.span obs "layout" (fun () ->
              let placement =
                Slp_layout.Scalar_layout.place ~env:prepared.Program.env plan
              in
              let arr = Slp_layout.Array_layout.apply ~obs plan in
              (placement, arr))
        in
        stage "lower";
        let laid_vec, laid_origins =
          Obs.span obs "lower" (fun () ->
              lower ~obs
                ~scalar_offsets:placement.Slp_layout.Scalar_layout.offsets
                ~setup:arr.Slp_layout.Array_layout.setup
                arr.Slp_layout.Array_layout.plan)
        in
        let probe vec scalar_offsets =
          Slp_vm.Counters.total_cycles
            (timing_of ~machine ~scalar_offsets prepared (Some vec))
        in
        let offsets = placement.Slp_layout.Scalar_layout.offsets in
        let trivial =
          List.length arr.Slp_layout.Array_layout.replicas = 0 && offsets = []
        in
        let use_layout, measured =
          if trivial then (true, None)
          else
            Obs.span obs "arbitrate" (fun () ->
                let laid = probe laid_vec offsets in
                let plain = probe (fst (Lazy.force plain_lowered)) [] in
                (laid < plain, Some (laid, plain)))
        in
        (match measured with
        | None -> ()
        | Some (laid, plain) when use_layout ->
            Obs.remark obs
              (Remark.make ~id:"LAYOUT-ARBITRATE-APPLY" ~pass:"layout"
                 (Printf.sprintf
                    "measured arbitration kept the laid-out variant (%.1f \
                     cycles vs %.1f plain)"
                    laid plain))
        | Some (laid, plain) ->
            Obs.remark obs
              (Remark.make ~id:"LAYOUT-ARBITRATE-SKIP" ~pass:"layout"
                 (Printf.sprintf
                    "measured arbitration discarded the layout transforms \
                     (%.1f cycles vs %.1f plain)"
                    laid plain)));
        if use_layout then
          ( Some laid_vec,
            Some arr.Slp_layout.Array_layout.plan,
            offsets,
            List.length arr.Slp_layout.Array_layout.replicas,
            laid_origins )
        else
          let plain_vec, plain_origins = Lazy.force plain_lowered in
          (Some plain_vec, Some plain_plan, [], 0, plain_origins)
  in
  (* Post-processing: map virtual vector registers onto the machine's
     register file (paper Figure 3's register allocation box). *)
  let unallocated = vector in
  let vector, spill_stats, origins =
    match vector with
    | None -> (None, Slp_codegen.Regalloc.zero_stats, origins)
    | Some v ->
        stage "regalloc";
        let v', st, origins' =
          Obs.span obs "regalloc" (fun () ->
              Slp_codegen.Regalloc.program_with_origins
                ~registers:machine.M.vector_registers ~origins v)
        in
        (Some v', st, origins')
  in
  let compile_seconds = Clock.now () -. t0 in
  (* Pass-by-pass verification (the -verify-each hook points): the
     prepared scalar IR, the chosen plan (pack + schedule legality,
     plus the rewritten program when layout transformed it), the Visa
     bytecode as lowered, and the bytecode again after register
     allocation.  Error findings abort via Verification_failed. *)
  let t1 = Clock.now () in
  let verify_report =
    if not verify then None
    else begin
      stage "verify";
      Obs.span obs "verify" (fun () ->
          let diags = ref (Verify.check_ir ~stage:D.Prepared_ir prepared) in
          let add ds = diags := !diags @ ds in
          add (Verify.check_deps ~stage:D.Prepared_ir prepared);
          (match plan with
          | Some p ->
              if p.Driver.program != prepared then
                add (Verify.check_ir ~stage:D.Layout p.Driver.program);
              add (Verify.check_plan ~config p)
          | None -> ());
          (match unallocated with
          | Some v ->
              add (Verify.check_visa ~stage:D.Lowering ~scalar_offsets ~machine v)
          | None -> ());
          (match vector with
          | Some v ->
              add
                (Verify.check_visa ~stage:D.Regalloc ~stats:spill_stats
                   ~scalar_offsets ~machine v)
          | None -> ());
          Some (Verify.of_diagnostics !diags))
    end
  in
  let verify_seconds = if verify then Clock.now () -. t1 else 0.0 in
  Option.iter (Verify.raise_if_errors ~what:prog.Program.name) verify_report;
  {
    scheme;
    machine;
    reference = prepared;
    vector;
    scalar_offsets;
    plan;
    compile_seconds;
    replica_count;
    unroll_factor;
    spill_stats;
    verify_report;
    verify_seconds;
    origins;
    solver_bails = !solver_bails;
  }

let execute_with_memory ?(cores = 1) ?(seed = 42) ?(check = true)
    ?(obs = Obs.none) ?pool (c : compiled) =
  Obs.span obs "execute" (fun () ->
      run_kernel ?profile:obs.Obs.profile ~origins:c.origins ?pool ~cores ~seed
        ~check ~machine:c.machine ~scalar_offsets:c.scalar_offsets c.reference
        c.vector)

let execute ?cores ?seed ?check ?obs ?pool c =
  fst (execute_with_memory ?cores ?seed ?check ?obs ?pool c)

let timing (c : compiled) =
  timing_of ~machine:c.machine ~scalar_offsets:c.scalar_offsets c.reference c.vector

(* -- fault-tolerant compilation ------------------------------------- *)

(* Classify any exception escaping the compile path into a structured
   error.  Typed errors pass through; the known foreign exceptions map
   to their reason codes; everything else is an internal error. *)
let error_of_exn = function
  | E.Error t -> t
  | Verify.Verification_failed (what, _report) ->
      E.make ~pass:E.Verification E.Verify_rejected
        (Printf.sprintf "verifier rejected %s" what)
  | Slp_vm.Trap.Trap info ->
      E.make ~pass:E.Vm E.Vm_trap (Slp_vm.Trap.to_string info)
  | Slp_frontend.Parser.Error (msg, line, col) ->
      E.make ~span:{ E.line; col } ~pass:E.Frontend E.Parse_error msg
  | Slp_frontend.Lexer.Error (msg, line, col) ->
      E.make ~span:{ E.line; col } ~pass:E.Frontend E.Lex_error msg
  | Invalid_argument msg -> E.make ~pass:E.Pipeline E.Internal msg
  | Failure msg -> E.make ~pass:E.Pipeline E.Internal msg
  | exn -> E.make ~pass:E.Pipeline E.Internal (Printexc.to_string exn)

type bailout = { kernel : string; scheme : scheme; machine : string; error : E.t }

let bailout_to_json (b : bailout) =
  Printf.sprintf
    "{\"kernel\": \"%s\", \"scheme\": \"%s\", \"machine\": \"%s\", \"error\": %s}"
    (E.json_escape b.kernel)
    (E.json_escape (scheme_name b.scheme))
    (E.json_escape b.machine) (E.to_json b.error)

let bailout_report_json bailouts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"bailouts\": %d, \"reports\": [" (List.length bailouts));
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (bailout_to_json b))
    bailouts;
  Buffer.add_string buf "]}";
  Buffer.contents buf

type resilient = { result : compiled; degraded : bool; bailouts : bailout list }

(* The unconditional last resort: the unprocessed scalar program with
   no vector code.  Building this record cannot raise. *)
let identity_compiled ~machine (prog : Program.t) =
  {
    scheme = Scalar;
    machine;
    reference = prog;
    vector = None;
    scalar_offsets = [];
    plan = None;
    compile_seconds = 0.0;
    replica_count = 0;
    unroll_factor = 1;
    spill_stats = Slp_codegen.Regalloc.zero_stats;
    verify_report = None;
    verify_seconds = 0.0;
    origins = [];
    solver_bails = [];
  }

let compile_resilient ?unroll ?(options = default_options) ?verify ?on_stage
    ?deadline ?obs ~scheme ~machine (prog : Program.t) =
  let bail exn =
    { kernel = prog.Program.name; scheme; machine = machine.M.name;
      error = error_of_exn exn }
  in
  let options =
    { options with max_steps = Some (Option.value options.max_steps ~default:2_000_000) }
  in
  match
    compile ?unroll ~options ?verify ?on_stage ?deadline ?obs ~scheme ~machine
      prog
  with
  | c -> { result = c; degraded = false; bailouts = [] }
  | exception exn -> begin
      let first = bail exn in
      (* Degrade the kernel to verified scalar code.  The fallback
         compile gets no stage hooks and no fuel: the scalar path does
         no grouping or scheduling, so the budget cannot apply, and
         re-running injection hooks would defeat the fallback. *)
      match compile ?unroll ~scheme:Scalar ~machine prog with
      | c -> { result = c; degraded = true; bailouts = [ first ] }
      | exception exn2 ->
          (* Even the scalar compile failed (preparation or the IR
             verifier).  Ship the unprocessed program. *)
          let second =
            { (bail exn2) with scheme = Scalar; error = error_of_exn exn2 }
          in
          { result = identity_compiled ~machine prog;
            degraded = true;
            bailouts = [ first; second ] }
    end

(* Execute with the same discipline: a trap (including an injected VM
   fault) during vectorized execution falls back to a clean scalar run
   of the reference program.  Injected faults are one-shot — they
   disarm when they fire — so the re-execution cannot re-trap on the
   same fault. *)
let execute_resilient ?cores ?seed ?check (c : compiled) =
  match execute ?cores ?seed ?check c with
  | r -> (r, None)
  | exception exn -> begin
      let error = error_of_exn exn in
      let scalar = { c with scheme = Scalar; vector = None } in
      match execute ?cores ?seed ~check:false scalar with
      | r -> (r, Some error)
      | exception exn2 ->
          (* A scalar re-run can only fail on a genuine program trap
             (e.g. an out-of-bounds subscript): surface it as an
             incorrect run rather than raising. *)
          ignore (error_of_exn exn2);
          ( { counters = Slp_vm.Counters.create (); correct = false },
            Some error )
    end
