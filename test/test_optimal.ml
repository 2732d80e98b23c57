(* The exact pack-selection scheme (lib/slp_core/optimal.ml) as a test
   oracle, and its own correctness obligations:

   - exactness: on tiny generated blocks (<= 6 statements) the
     branch-and-bound result equals the exhaustive minimum over every
     legal packing, priced by the shared evaluator;
   - dominance: on all 16 suite kernels x both machines, the Optimal
     scheme's modeled cost never exceeds any heuristic's, and its
     compiled output is memory-identical to the scalar reference;
   - bounded failure: a combinatorial blowup kernel exhausts the
     solver budget, bails to the holistic heuristic under the
     advisory BAIL15 — without degrading the compile — still
     dominates the heuristic it fell back to, and reports the nodes
     its search visited;
   - pinned results: the fuel-bound kernels at 256 bits keep their
     plans, and their bailed searches keep the nodes, leaves, bound
     cuts, rejected packs and incumbent improvements they reach. *)

open Slp_ir
module E = Slp_util.Slp_error
module Prng = Slp_util.Prng
module Optimal = Slp_core.Optimal
module Cost = Slp_core.Cost
module Config = Slp_core.Config
module Driver = Slp_core.Driver
module Depend = Slp_depend.Depend
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Suite = Slp_benchmarks.Suite
module Gen = Slp_fuzz.Gen
module Schedule = Slp_core.Schedule
module Grouping = Slp_core.Grouping

let intel = Machine.intel_dunnington
let amd = Machine.amd_phenom_ii

(* The same scheme-fair block pricing [Optimal.modeled_cost] applies
   to whole plans: committed -> estimated vector cost, otherwise the
   exact scalar cost of the block's statements. *)
let block_cost params (bp : Driver.block_plan) =
  match (bp.Driver.schedule, bp.Driver.estimate) with
  | Some _, Some e -> e.Cost.vector_cost
  | _ ->
      List.fold_left
        (fun a s -> a +. Cost.scalar_stmt_cost params s)
        0.0 bp.Driver.block.Block.stmts

(* -- exactness against brute force --------------------------------- *)

(* Seeded property: draw small kernels, and for every block of at most
   6 statements compare the solver's result against the minimum over
   ALL legal packings from [enumerate_partitions], both priced by the
   one shared evaluator.  The solver must also report the search as
   proven (no bail at an effectively unbounded budget). *)
let test_bruteforce_exactness () =
  let config = Config.make ~datapath_bits:128 () in
  let params = Cost.default_params in
  let options =
    { Gen.default_options with Gen.max_stmts = 5; allow_prologue = false }
  in
  let master = Seeded.prng ~salt:31 () in
  let checked = ref 0 in
  for k = 0 to 39 do
    let prng = Prng.split master in
    let prog = Gen.program ~options ~name:(Printf.sprintf "bf%d" k) prng in
    let env = prog.Program.env in
    List.iter
      (fun ({ Driver.block; nest; deps; _ } as site : Driver.site) ->
        if List.length block.Block.stmts <= 6 then begin
          let query = Cost.default_query ~env ~nest ~lanes:2 in
          let plan, bail, stats =
            Optimal.plan_block ~solver_steps:10_000_000 ~env ~config ~query site
          in
          let name fmt =
            Printf.ksprintf
              (fun s -> Printf.sprintf "case %d %s: %s" k block.Block.label s)
              fmt
          in
          Alcotest.(check bool)
            (name "search proven")
            true
            (bail = None && stats.Optimal.proven);
          let scalar =
            List.fold_left
              (fun a s -> a +. Cost.scalar_stmt_cost params s)
              0.0 block.Block.stmts
          in
          let best =
            List.fold_left
              (fun best parts ->
                match
                  Optimal.evaluate ~query ~deps ~config block
                    (Optimal.grouping_of_parts parts)
                with
                | Some a ->
                    Float.min best a.Optimal.a_estimate.Cost.vector_cost
                | None -> best)
              scalar
              (Optimal.enumerate_partitions ~env ~config ~deps block)
          in
          incr checked;
          Alcotest.(check (float 1e-6))
            (name "solver equals exhaustive minimum")
            best (block_cost params plan)
        end)
      (Driver.sites ~precise:true prog)
  done;
  Alcotest.(check bool) "property exercised some blocks" true (!checked > 0)

(* -- shared facts ---------------------------------------------------- *)

(* The solver evaluates every leaf of a block on one facts value, which
   keeps the block's groups and pricing answers between evaluations.
   Sharing must never change a result: each partition of every small
   generated block, scheduled and priced on the shared value, equals
   the same evaluation on fresh facts, bit for bit.  The partitions
   cycle through three pricings of the shared value, so consecutive
   evaluations change the query under the same params, then both, then
   the params under the same query: answers memoised under one of them
   must not leak into another. *)
let same_estimate (a : Cost.estimate) (b : Cost.estimate) =
  Int64.equal (Int64.bits_of_float a.Cost.scalar_cost) (Int64.bits_of_float b.Cost.scalar_cost)
  && Int64.equal (Int64.bits_of_float a.Cost.vector_cost) (Int64.bits_of_float b.Cost.vector_cost)
  && { a with Cost.scalar_cost = 0.0; vector_cost = 0.0 }
     = { b with Cost.scalar_cost = 0.0; vector_cost = 0.0 }

let prop_shared_facts =
  let config = Config.make ~datapath_bits:128 () in
  let options = { Gen.default_options with Gen.max_stmts = 6 } in
  QCheck.Test.make ~name:"shared facts never change a schedule or an estimate" ~count:60
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Slp_fuzz.Gen.program ~options ~name:"shared" (Prng.create seed) in
      let env = prog.Program.env in
      List.for_all
        (fun ({ Driver.block; nest; deps; _ } : Driver.site) ->
          List.length block.Block.stmts > 6
          ||
          let plain = Cost.default_query ~env ~nest ~lanes:2 in
          (* Every pack contiguous and aligned, no scalar live out:
             answers that differ from the plain query's. *)
          let eager =
            { Cost.contiguous = (fun _ -> true); aligned = (fun _ -> true);
              scalar_live_out = (fun _ -> false) }
          in
          let intel = Pipeline.params_of_machine intel in
          let pricings =
            [| (plain, Cost.default_params); (eager, Cost.default_params); (plain, intel) |]
          in
          let shared = Schedule.Facts.make ~deps block in
          let evaluate facts pricing_facts (query, params) grouping =
            match Schedule.run_facts ~config facts grouping with
            | exception E.Error { E.code = E.Schedule_failed; _ } -> None
            | sched ->
                Some
                  ( sched,
                    Schedule.is_valid_facts facts sched,
                    Cost.estimate_facts ~params ~query pricing_facts sched )
          in
          List.for_all
            (fun (k, parts) ->
              let pricing = pricings.(k mod Array.length pricings) in
              let grouping = Optimal.grouping_of_parts parts in
              let fresh () = Schedule.Facts.make ~deps block in
              match
                ( evaluate shared shared pricing grouping,
                  evaluate (fresh ()) (fresh ()) pricing grouping )
              with
              | None, None -> true
              | Some (s1, v1, e1), Some (s2, v2, e2)
                when s1 = s2 && v1 = v2 && same_estimate e1 e2 ->
                  true
              | _ ->
                  QCheck.Test.fail_reportf "block %s, partition %d (%s): shared facts differ"
                    block.Block.label k
                    (String.concat " | "
                       (List.map (fun p -> String.concat "," (List.map string_of_int p)) parts)))
            (List.mapi (fun k parts -> (k, parts))
               (Optimal.enumerate_partitions ~env ~config ~deps block)))
        (Driver.sites ~precise:true prog))

(* -- dominance over every heuristic on the suite -------------------- *)

let heuristics =
  [ Pipeline.Native; Pipeline.Slp; Pipeline.Global; Pipeline.Global_layout ]

let test_suite_dominance () =
  List.iter
    (fun (machine : Machine.t) ->
      let params = Pipeline.params_of_machine machine in
      List.iter
        (fun (b : Suite.t) ->
          let prog = Suite.program b in
          let compile scheme =
            Pipeline.compile ~unroll:b.Suite.unroll ~scheme ~machine prog
          in
          let opt = compile Pipeline.Optimal in
          let opt_cost =
            match opt.Pipeline.plan with
            | Some plan -> Optimal.modeled_cost ~params plan
            | None -> Alcotest.failf "%s: Optimal produced no plan" b.Suite.name
          in
          let r = Pipeline.execute opt in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: memory identical to scalar" b.Suite.name
               machine.Machine.name)
            true r.Pipeline.correct;
          List.iter
            (fun scheme ->
              let c = compile scheme in
              (* A layout-transformed compile re-prices memory through
                 replication, which the block-local model cannot see;
                 costs are only comparable when the stage was skipped. *)
              let comparable =
                match scheme with
                | Pipeline.Global_layout ->
                    c.Pipeline.replica_count = 0
                    && c.Pipeline.scalar_offsets = []
                | _ -> true
              in
              match c.Pipeline.plan with
              | Some plan when comparable ->
                  let cost = Optimal.modeled_cost ~params plan in
                  if cost +. 1e-6 < opt_cost then
                    Alcotest.failf "%s on %s: %s cost %.3f beats optimal %.3f"
                      b.Suite.name machine.Machine.name
                      (Pipeline.scheme_name scheme)
                      cost opt_cost
              | Some _ | None -> ())
            heuristics)
        Suite.all)
    [ intel; amd ]

(* -- budget exhaustion bails, advisory-only ------------------------- *)

(* 12 mutually isomorphic, mutually independent statements, unrolled
   x2 by the pipeline: at 2 lanes the pairing space alone is ~23!!
   nodes, so a 100-node budget is guaranteed to run dry. *)
let blowup_program () =
  let env = Env.create () in
  List.iter
    (fun a -> Env.declare_array env a Types.F64 [ 64 ])
    [ "A"; "B"; "C" ];
  let open Expr.Infix in
  let at k = (12 @* i "i") @+ k in
  let stmts =
    List.init 12 (fun k ->
        (Operand.Elem ("A", [ at k ]), arr "B" [ at k ] + arr "C" [ at k ]))
  in
  Program.make ~name:"blowup" ~env
    [
      Program.loop "i" ~lo:(Affine.const 0) ~hi:(Affine.const 4)
        [ Program.Stmts (Block.of_rhs ~label:"body" stmts) ];
    ]

let budget_100 = { Pipeline.default_options with Pipeline.solver_steps = 100 }

let test_blowup_bails () =
  let prog = blowup_program () in
  let c =
    Pipeline.compile ~options:budget_100 ~scheme:Pipeline.Optimal ~machine:intel prog
  in
  Alcotest.(check bool)
    "solver ran out of budget" true
    (c.Pipeline.solver_bails <> []);
  List.iter
    (fun (e : E.t) ->
      Alcotest.(check string) "advisory code is BAIL15" "BAIL15"
        (E.code_id e.E.code))
    c.Pipeline.solver_bails;
  (* Seeds keep the dominance guarantee even on a bail. *)
  let params = Pipeline.params_of_machine intel in
  let g = Pipeline.compile ~scheme:Pipeline.Global ~machine:intel prog in
  (match (c.Pipeline.plan, g.Pipeline.plan) with
  | Some po, Some pg ->
      Alcotest.(check bool)
        "bailed result still dominates the heuristic" true
        (Optimal.modeled_cost ~params po
        <= Optimal.modeled_cost ~params pg +. 1e-6)
  | _ -> Alcotest.fail "plans missing");
  (* A bailed block still reports the search it did, in its stats and
     in its OPT-BAIL remark. *)
  let config = Config.make ~datapath_bits:128 () in
  let env = prog.Program.env in
  let bails, stats =
    List.split
      (List.map
         (fun (site : Driver.site) ->
           let _, bail, stats =
             Optimal.plan_block ~solver_steps:100 ~env ~config
               ~query:(Cost.default_query ~env ~nest:site.Driver.nest ~lanes:2)
               site
           in
           (bail, stats))
         (Driver.sites ~precise:true prog))
  in
  let bails = List.filter_map Fun.id bails in
  Alcotest.(check bool) "raw kernel bails too" true (bails <> []);
  List.iter
    (fun (st : Optimal.stats) ->
      if st.Optimal.bailed then begin
        Alcotest.(check bool) "bailed block counts its nodes" true (st.Optimal.nodes > 0);
        Alcotest.(check bool) "not proven" false st.Optimal.proven
      end)
    stats;
  let obs = Slp_obs.Obs.create ~remarks:true () in
  ignore
    (Pipeline.compile ~obs ~options:budget_100 ~scheme:Pipeline.Optimal ~machine:intel
       prog);
  let bail_nodes =
    List.filter_map
      (fun (r : Slp_obs.Remark.t) ->
        if r.Slp_obs.Remark.id = "OPT-BAIL" then
          Scanf.sscanf_opt r.Slp_obs.Remark.message
            "solver budget %_d exhausted after %d nodes, %_d leaves" Fun.id
        else None)
      (Slp_obs.Obs.remarks obs)
  in
  Alcotest.(check bool) "OPT-BAIL remark names nodes > 0" true
    (bail_nodes <> [] && List.for_all (fun n -> n > 0) bail_nodes)

let test_blowup_resilient_not_degraded () =
  let prog = blowup_program () in
  let r =
    Pipeline.compile_resilient ~options:budget_100 ~scheme:Pipeline.Optimal
      ~machine:intel prog
  in
  Alcotest.(check bool) "not degraded" true (not r.Pipeline.degraded);
  Alcotest.(check int) "no resilient bailouts" 0 (List.length r.Pipeline.bailouts);
  Alcotest.(check bool)
    "BAIL15 advisory surfaced" true
    (r.Pipeline.result.Pipeline.solver_bails <> []);
  let x = Pipeline.execute r.Pipeline.result in
  Alcotest.(check bool) "memory identical after bail" true x.Pipeline.correct

(* At a generous budget the same kernel must not bail at all on its
   unvectorizable twin: singles-only blocks are solved instantly. *)
let test_small_budget_scales () =
  let prog = blowup_program () in
  let c =
    Pipeline.compile ~options:Pipeline.default_options ~scheme:Pipeline.Optimal
      ~machine:intel prog
  in
  (* Whether or not the default budget proves this block, the compile
     must succeed with a plan and verified lowering. *)
  Alcotest.(check bool) "plan produced" true (c.Pipeline.plan <> None);
  let x = Pipeline.execute c in
  Alcotest.(check bool) "memory identical" true x.Pipeline.correct

(* -- fuel-bound results, pinned ------------------------------------ *)

(* The eight kernels whose exact search runs out of its default fuel on
   Figure 18's widened Intel model at 256 bits, compiled as the
   compile_wide benchmark compiles them (unroll scaled by width/128).
   A bailed search's own finds are discarded: each block's plan is the
   best of the incumbents the search started from (the holistic
   heuristic's plan, the Native and SLP seeds).  So these pins hold
   the plans, not the traversal; the node, leaf and count pins below
   see the search.  Values recorded from the solver before its leaves
   moved onto per-block facts: modeled cost, superword statements,
   BAIL15 records, Visa instructions. *)
let fuel_bound_pins =
  [
    ("cactusADM", 120.0, 0, 1, 26);
    ("lbm", 64.0, 5, 1, 30);
    ("povray", 29.0, 3, 1, 16);
    ("gromacs", 120.0, 3, 1, 17);
    ("calculix", 184.0, 0, 1, 8);
    ("namd", 253.0, 6, 1, 34);
    ("ua", 121.0, 2, 1, 14);
    ("ft", 98.0, 6, 1, 20);
  ]

let test_fuel_bound_pinned () =
  let machine = Machine.with_simd_bits intel 256 in
  let params = Pipeline.params_of_machine machine in
  List.iter
    (fun (name, cost, superwords, bails, instrs) ->
      let b = List.find (fun (b : Suite.t) -> b.Suite.name = name) Suite.all in
      let unroll = max 1 (b.Suite.unroll * machine.Machine.simd_bits / 128) in
      let c =
        Pipeline.compile ~unroll ~scheme:Pipeline.Optimal ~machine (Suite.program b)
      in
      let plan =
        match c.Pipeline.plan with
        | Some p -> p
        | None -> Alcotest.failf "%s: Optimal produced no plan" name
      in
      let check what = Printf.sprintf "%s: %s" name what in
      Alcotest.(check (float 1e-9))
        (check "modeled cost") cost
        (Optimal.modeled_cost ~params plan);
      Alcotest.(check int)
        (check "superword statements") superwords
        (Driver.superword_statement_count plan);
      Alcotest.(check int)
        (check "BAIL15 records") bails
        (List.length c.Pipeline.solver_bails);
      Alcotest.(check int)
        (check "Visa instructions") instrs
        (match c.Pipeline.vector with
        | Some v -> Slp_vm.Visa.instr_count v
        | None -> 0))
    fuel_bound_pins

(* The searches behind those pins, as each block's OPT-BAIL remark
   reports them: nodes expanded and leaves evaluated before the fuel
   ran out.  A leaf may get cheaper to evaluate; what the search
   visits must not change.  Values as DESIGN.md's "Solver cost" table
   records them. *)
let fuel_bound_searches =
  [
    ("cactusADM", 15146, 1865);
    ("lbm", 14994, 496);
    ("povray", 10266, 2);
    ("gromacs", 13710, 2114);
    ("calculix", 14369, 2784);
    ("namd", 15279, 1596);
    ("ua", 15345, 1619);
    ("ft", 15891, 1105);
  ]

let test_fuel_bound_searches_pinned () =
  let machine = Machine.with_simd_bits intel 256 in
  List.iter
    (fun (name, nodes, leaves) ->
      let b = List.find (fun (b : Suite.t) -> b.Suite.name = name) Suite.all in
      let unroll = max 1 (b.Suite.unroll * machine.Machine.simd_bits / 128) in
      let obs = Slp_obs.Obs.create ~remarks:true () in
      ignore
        (Pipeline.compile ~obs ~unroll ~scheme:Pipeline.Optimal ~machine (Suite.program b));
      let searches =
        List.filter_map
          (fun (r : Slp_obs.Remark.t) ->
            if r.Slp_obs.Remark.id = "OPT-BAIL" then
              Scanf.sscanf_opt r.Slp_obs.Remark.message
                "solver budget %_d exhausted after %d nodes, %d leaves" (fun n l -> (n, l))
            else None)
          (Slp_obs.Obs.remarks obs)
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s: OPT-BAIL nodes and leaves" name)
        [ (nodes, leaves) ] searches)
    fuel_bound_searches

(* What those searches did besides expanding nodes, as the same
   remarks report it after the leaves: subtrees cut by the bound, packs
   rejected because contracting them closes a dependence cycle, and
   leaves that beat the incumbent.  Recorded before the search's
   tables, memo key and cycle check were rewritten, so they hold the
   rewrite to the same cuts, rejections and finds.  No pack of these
   blocks closes a cycle, so the rejections only guard against a check
   that rejects too much; the incremental check's own oracle is the
   "incremental cycle check" case in test_slp_core.ml.
   gromacs's and calculix's improvements are the partitions priced 68
   and 183 that the bail discards (their plans keep the incumbents
   priced 72 and 184). *)
let fuel_bound_counts =
  [
    ("cactusADM", 0, 0, 0);
    ("lbm", 2657, 0, 0);
    ("povray", 9012, 0, 0);
    ("gromacs", 6, 0, 1);
    ("calculix", 0, 0, 1);
    ("namd", 0, 0, 0);
    ("ua", 11, 0, 0);
    ("ft", 522, 0, 0);
  ]

let test_fuel_bound_counts_pinned () =
  let machine = Machine.with_simd_bits intel 256 in
  List.iter
    (fun (name, cuts, infeasible, improvements) ->
      let b = List.find (fun (b : Suite.t) -> b.Suite.name = name) Suite.all in
      let unroll = max 1 (b.Suite.unroll * machine.Machine.simd_bits / 128) in
      let obs = Slp_obs.Obs.create ~remarks:true () in
      ignore
        (Pipeline.compile ~obs ~unroll ~scheme:Pipeline.Optimal ~machine (Suite.program b));
      let counts =
        List.filter_map
          (fun (r : Slp_obs.Remark.t) ->
            if r.Slp_obs.Remark.id = "OPT-BAIL" then
              Scanf.sscanf_opt r.Slp_obs.Remark.message
                "solver budget %_d exhausted after %_d nodes, %_d leaves (%d bound cuts, %d \
                 infeasible, %d improvements)"
                (fun c i m -> (c, i, m))
            else None)
          (Slp_obs.Obs.remarks obs)
      in
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "%s: OPT-BAIL bound cuts, infeasible packs, improvements" name)
        [ (cuts, infeasible, improvements) ] counts)
    fuel_bound_counts

(* A fuel-bound block's search evaluates thousands of leaves on the
   block's one facts value.  Once the facts are warm (the groups'
   packs resolved, the pricing answers memoised), re-evaluating a leaf
   (its schedule, validity check and estimate) may allocate per
   schedule item no more than [leaf_words_per_item] minor words.  The
   leaf is each fuel-bound block's holistic grouping at 256 bits,
   priced under the default query.  Measured: 31 to 107 words per
   item.  The same leaves allocated 660 to 1180 before the facts kept
   the scheduler's and the estimator's live sets, scratch arrays and
   superword views, and 2.1k to 8.0k before the leaves worked on
   interned operand ids. *)
let leaf_words_per_item = 135.0

let test_leaf_allocation () =
  let machine = Machine.with_simd_bits intel 256 in
  let config =
    Config.make ~vector_registers:machine.Machine.vector_registers ~datapath_bits:256 ()
  in
  let params = Pipeline.params_of_machine machine in
  List.iter
    (fun (name, _, _) ->
      let b = List.find (fun (b : Suite.t) -> b.Suite.name = name) Suite.all in
      let unroll = max 1 (b.Suite.unroll * machine.Machine.simd_bits / 128) in
      let prog =
        Slp_transform.Simplify.fold_program (Suite.program b)
        |> Slp_transform.Unroll.program ~factor:unroll
      in
      let env = prog.Program.env in
      let leaves =
        List.filter_map
          (fun (site : Driver.site) ->
            let query = Cost.default_query ~env ~nest:site.Driver.nest ~lanes:4 in
            match Optimal.plan_block ~params ~env ~config ~query site with
            | _, None, _ -> None
            | _, Some _, _ ->
                let facts = Lazy.force site.Driver.facts in
                let grouping =
                  Grouping.run ~dep_pairs:site.Driver.deps ~env ~config site.Driver.block
                in
                Some
                  (fun () ->
                    let sched = Schedule.run_facts ~config facts grouping in
                    ignore (Schedule.is_valid_facts facts sched);
                    ignore (Cost.estimate_facts ~params ~query facts sched);
                    sched))
          (Driver.sites ~precise:true prog)
      in
      Alcotest.(check int) (name ^ ": one fuel-bound block") 1 (List.length leaves);
      List.iter
        (fun leaf ->
          let items = List.length (leaf ()).Schedule.items in
          let reps = 10 in
          let before = Gc.minor_words () in
          for _ = 1 to reps do
            ignore (leaf ())
          done;
          let per_item = (Gc.minor_words () -. before) /. float_of_int (reps * items) in
          if not (per_item < leaf_words_per_item) then
            Alcotest.failf "%s: a warm leaf allocates %.0f minor words per schedule item (budget %.0f)"
              name per_item leaf_words_per_item)
        leaves)
    fuel_bound_searches

let () =
  Alcotest.run "optimal"
    [
      ( "optimal",
        [
          Alcotest.test_case "brute-force exactness (<=6 stmts)" `Slow
            test_bruteforce_exactness;
          Alcotest.test_case "dominates every heuristic on the suite" `Slow
            test_suite_dominance;
          Alcotest.test_case "blowup kernel bails under BAIL15" `Quick
            test_blowup_bails;
          Alcotest.test_case "bail is advisory: resilient not degraded" `Quick
            test_blowup_resilient_not_degraded;
          Alcotest.test_case "default budget still compiles and verifies"
            `Quick test_small_budget_scales;
          Alcotest.test_case "fuel-bound results at 256 bits pinned" `Slow
            test_fuel_bound_pinned;
          Alcotest.test_case "fuel-bound searches at 256 bits pinned" `Slow
            test_fuel_bound_searches_pinned;
          Alcotest.test_case "fuel-bound search counts pinned" `Slow
            test_fuel_bound_counts_pinned;
          Seeded.to_alcotest prop_shared_facts;
          Alcotest.test_case "warm fuel-bound leaf allocation budget" `Quick
            test_leaf_allocation;
        ] );
    ]
