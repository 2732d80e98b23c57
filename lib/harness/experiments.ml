module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Suite = Slp_benchmarks.Suite
module Counters = Slp_vm.Counters
module Tab = Slp_util.Tabulate

type report = { id : string; title : string; body : string }

let intel = Machine.intel_dunnington
let amd = Machine.amd_phenom_ii
let pct = Tab.pct

(* -- tables ---------------------------------------------------------- *)

let machine_table id title machine =
  let body =
    Tab.render
      ~header:[ "Parameter"; "Value" ]
      ~rows:(List.map (fun (k, v) -> [ k; v ]) (Machine.describe machine))
  in
  { id; title; body }

let table1 () =
  machine_table "table1" "Table 1: Characteristics of the Intel Dunnington based machine"
    intel

let table2 () =
  machine_table "table2" "Table 2: Characteristics of the AMD Phenom II based machine" amd

let table3 () =
  let rows =
    List.map
      (fun (b : Suite.t) ->
        [ Suite.suite_name b.Suite.suite; b.Suite.name; b.Suite.description ])
      Suite.all
  in
  {
    id = "table3";
    title = "Table 3: Benchmark description";
    body = Tab.render ~header:[ "Suite"; "Benchmark"; "Description" ] ~rows;
  }

(* -- shared measurement helpers -------------------------------------- *)

let reduction_over_scalar ?(machine = intel) ?cores scheme (b : Suite.t) =
  let scalar = Runner.measure ?cores ~machine ~scheme:Pipeline.Scalar b in
  let m = Runner.measure ?cores ~machine ~scheme b in
  Runner.reduction ~baseline:scalar m

let check_all_correct ~machine schemes =
  List.for_all
    (fun (b : Suite.t) ->
      List.for_all
        (fun scheme -> (Runner.measure ~machine ~scheme b).Runner.correct)
        schemes)
    Suite.all

(* -- Figure 16 ------------------------------------------------------- *)

let fig16 () =
  let data =
    List.map
      (fun (b : Suite.t) ->
        ( b.Suite.name,
          reduction_over_scalar Pipeline.Native b,
          reduction_over_scalar Pipeline.Slp b,
          reduction_over_scalar Pipeline.Global b ))
      Suite.all
    |> List.sort (fun (_, _, _, ga) (_, _, _, gb) -> compare ga gb)
  in
  let category g = if g < 0.05 then "low" else if g < 0.20 then "medium" else "high" in
  let rows =
    List.map
      (fun (name, n, s, g) -> [ name; pct n; pct s; pct g; category g ])
      data
  in
  let avg f = List.fold_left (fun acc x -> acc +. f x) 0.0 data /. float_of_int (List.length data) in
  let ok = check_all_correct ~machine:intel [ Pipeline.Native; Pipeline.Slp; Pipeline.Global ] in
  let body =
    Tab.render ~header:[ "Benchmark"; "Native"; "SLP"; "Global"; "category" ] ~rows
    ^ Printf.sprintf
        "\nAverages: Native %s, SLP %s, Global %s (paper: Global averages ~12%% on Intel).\n\
         Benchmarks ordered by the Global improvement; categories mark the paper's\n\
         three boxes.  Global equals SLP where both find the same packs and beats it\n\
         where reuse-aware grouping/ordering differs.  Semantics checks: %s.\n"
        (pct (avg (fun (_, n, _, _) -> n)))
        (pct (avg (fun (_, _, s, _) -> s)))
        (pct (avg (fun (_, _, _, g) -> g)))
        (if ok then "all passed" else "FAILURES")
    ^ "\n"
    ^ Tab.bar_chart ~title:"Global reduction over scalar (%)" ~unit_label:"%"
        (List.map (fun (name, _, _, g) -> (name, 100.0 *. g)) data)
  in
  {
    id = "fig16";
    title =
      "Figure 16: Execution time reductions over scalar (Intel Dunnington, 1 core)";
    body;
  }

(* -- Figure 17 ------------------------------------------------------- *)

let fig17 () =
  let data =
    List.filter_map
      (fun (b : Suite.t) ->
        let slp = Runner.measure ~machine:intel ~scheme:Pipeline.Slp b in
        let global = Runner.measure ~machine:intel ~scheme:Pipeline.Global b in
        let di_slp = Counters.dynamic_instructions slp.Runner.counters in
        let di_g = Counters.dynamic_instructions global.Runner.counters in
        let pk_slp = Counters.packing_instructions slp.Runner.counters in
        let pk_g = Counters.packing_instructions global.Runner.counters in
        let dyn_red =
          if di_slp = 0 then 0.0 else 1.0 -. (float_of_int di_g /. float_of_int di_slp)
        in
        let pack_red =
          if pk_slp = 0 then None
          else Some (1.0 -. (float_of_int pk_g /. float_of_int pk_slp))
        in
        Some (b.Suite.name, dyn_red, pack_red))
      Suite.all
  in
  let rows =
    List.map
      (fun (name, d, p) ->
        [
          name;
          pct d;
          (match p with Some p -> pct p | None -> "n/a (no packing)");
        ])
      data
  in
  let avg_dyn =
    List.fold_left (fun acc (_, d, _) -> acc +. d) 0.0 data
    /. float_of_int (List.length data)
  in
  let packs = List.filter_map (fun (_, _, p) -> p) data in
  let avg_pack =
    if packs = [] then 0.0
    else List.fold_left ( +. ) 0.0 packs /. float_of_int (List.length packs)
  in
  let body =
    Tab.render
      ~header:[ "Benchmark"; "dyn. instr. reduction"; "packing/unpacking reduction" ]
      ~rows
    ^ Printf.sprintf
        "\nAverages: dynamic instructions %s, packing/unpacking %s\n\
         (paper: 14.5%% and 43.5%% — reductions of Global relative to SLP).\n"
        (pct avg_dyn) (pct avg_pack)
  in
  {
    id = "fig17";
    title = "Figure 17: Reductions brought by Global over SLP (Intel)";
    body;
  }

(* -- Figure 18 ------------------------------------------------------- *)

let fig18 () =
  let widths = [ 128; 256; 512; 1024 ] in
  let eliminated bits =
    let machine = Machine.with_simd_bits intel bits in
    let totals scheme =
      List.fold_left
        (fun acc (b : Suite.t) ->
          let m = Runner.measure ~machine ~scheme b in
          acc + Counters.total_instructions m.Runner.counters)
        0 Suite.all
    in
    let scalar = totals Pipeline.Scalar and global = totals Pipeline.Global in
    1.0 -. (float_of_int global /. float_of_int scalar)
  in
  let data = List.map (fun bits -> (bits, eliminated bits)) widths in
  let rows = List.map (fun (bits, e) -> [ string_of_int bits ^ "-bit"; pct e ]) data in
  let body =
    Tab.render ~header:[ "Datapath"; "dynamic instructions eliminated" ] ~rows
    ^ "\nPaper: 49.1% at 128 bits rising to 54.5% at 1024 bits — wider datapaths\n\
       eliminate more instructions, with diminishing returns as packing overheads\n\
       and unvectorizable statements dominate.\n"
  in
  {
    id = "fig18";
    title =
      "Figure 18: Dynamic instructions eliminated by Global over scalar vs datapath width";
    body;
  }

(* -- Figure 19 ------------------------------------------------------- *)

let fig19 () =
  let data =
    List.map
      (fun (b : Suite.t) ->
        let g = reduction_over_scalar Pipeline.Global b in
        let gl = reduction_over_scalar Pipeline.Global_layout b in
        let slp = reduction_over_scalar Pipeline.Slp b in
        (b.Suite.name, g, gl, slp))
      Suite.all
  in
  let rows =
    List.map
      (fun (name, g, gl, _) ->
        [ name; pct g; pct gl; (if gl > g +. 0.002 then "layout helps" else "") ])
      data
  in
  let helped = List.length (List.filter (fun (_, g, gl, _) -> gl > g +. 0.002) data) in
  let max_over_slp =
    List.fold_left (fun acc (_, _, gl, slp) -> Float.max acc (gl -. slp)) 0.0 data
  in
  let avg f = List.fold_left (fun acc x -> acc +. f x) 0.0 data /. float_of_int (List.length data) in
  let body =
    Tab.render ~header:[ "Benchmark"; "Global"; "Global+Layout"; "" ] ~rows
    ^ Printf.sprintf
        "\nLayout helps %d benchmarks (paper: 7 of 16; elsewhere its constraints or\n\
         the cost arbitration skip it).  Averages: Global %s, Global+Layout %s.\n\
         Maximum improvement of Global+Layout over SLP: %s (paper: 15.2%%).\n"
        helped
        (pct (avg (fun (_, g, _, _) -> g)))
        (pct (avg (fun (_, _, gl, _) -> gl)))
        (pct max_over_slp)
    ^ "\n"
    ^ Tab.bar_chart ~title:"Additional reduction from the layout stage (pp)"
        ~unit_label:"pp"
        (List.map (fun (name, g, gl, _) -> (name, 100.0 *. (gl -. g))) data)
  in
  { id = "fig19"; title = "Figure 19: Global+Layout vs Global (Intel)"; body }

(* -- Figure 20 ------------------------------------------------------- *)

let fig20 () =
  let on machine scheme b = reduction_over_scalar ~machine scheme b in
  let rows =
    List.map
      (fun (b : Suite.t) ->
        [
          b.Suite.name;
          pct (on amd Pipeline.Global b);
          pct (on amd Pipeline.Global_layout b);
        ])
      Suite.all
  in
  let avg machine scheme =
    List.fold_left (fun acc b -> acc +. on machine scheme b) 0.0 Suite.all
    /. float_of_int (List.length Suite.all)
  in
  let body =
    Tab.render ~header:[ "Benchmark"; "Global"; "Global+Layout" ] ~rows
    ^ Printf.sprintf
        "\nAMD averages: Global %s, Global+Layout %s (paper: 10.8%% / 14.1%%).\n\
         Intel averages: Global %s, Global+Layout %s (paper: 12%% / 14.9%%).\n\
         Savings are lower on the AMD machine, whose packing/unpacking\n\
         instructions cost more (paper §7.2).\n"
        (pct (avg amd Pipeline.Global))
        (pct (avg amd Pipeline.Global_layout))
        (pct (avg intel Pipeline.Global))
        (pct (avg intel Pipeline.Global_layout))
  in
  { id = "fig20"; title = "Figure 20: Execution time reductions on the AMD machine"; body }

(* -- Figure 21 ------------------------------------------------------- *)

let fig21 () =
  let core_counts = [ 1; 2; 4; 6; 8; 10; 12 ] in
  let section scheme =
    let rows =
      List.map
        (fun (b : Suite.t) ->
          b.Suite.name
          :: List.map
               (fun cores -> pct (reduction_over_scalar ~cores scheme b))
               core_counts)
        Suite.nas
    in
    let avg cores =
      List.fold_left
        (fun acc b -> acc +. reduction_over_scalar ~cores scheme b)
        0.0 Suite.nas
      /. float_of_int (List.length Suite.nas)
    in
    Tab.render
      ~header:("Benchmark" :: List.map (fun c -> string_of_int c ^ "c") core_counts)
      ~rows
    ^ "Average:   "
    ^ String.concat "  " (List.map (fun c -> pct (avg c)) core_counts)
    ^ "\n"
  in
  let body =
    "(a) Global\n" ^ section Pipeline.Global ^ "\n(b) Global+Layout\n"
    ^ section Pipeline.Global_layout
    ^ "\nImprovements persist (and grow slightly) with core count: contention\n\
       inflates memory latency, and the vectorized code issues fewer memory\n\
       operations (paper: \"mostly due to the less-than-perfect scalability of\n\
       the original applications\").\n"
  in
  {
    id = "fig21";
    title = "Figure 21: NAS multicore execution time reductions (Intel, 1-12 cores)";
    body;
  }

(* -- compile-time overhead ------------------------------------------- *)

let compile_overhead () =
  (* One pass compiles every kernel 5 times under one scheme, starting
     from a collected heap so that no major-GC work a previous pass
     left behind lands in it.  The first pass of each scheme is
     untimed: it pays the process's warm-up (heap growth, first-touch
     faults).  Then 9 pairs of passes, alternating which scheme goes
     first, so neither scheme always runs on a warmer heap.  The
     monotonic clock cannot run backwards under NTP adjustments the
     way [Sys.time] can. *)
  let pass scheme =
    Gc.full_major ();
    let t0 = Slp_obs.Clock.now () in
    List.iter
      (fun (b : Suite.t) ->
        let prog = Suite.program b in
        for _ = 1 to 5 do
          ignore (Pipeline.compile ~unroll:b.Suite.unroll ~scheme ~machine:intel prog)
        done)
      Suite.all;
    Slp_obs.Clock.now () -. t0
  in
  ignore (pass Pipeline.Slp +. pass Pipeline.Global);
  let pairs =
    List.init 9 (fun k ->
        if k mod 2 = 0 then
          let slp = pass Pipeline.Slp in
          (slp, pass Pipeline.Global)
        else
          let global = pass Pipeline.Global in
          (pass Pipeline.Slp, global))
  in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let overheads = List.map (fun (slp, global) -> (global /. slp) -. 1.0) pairs in
  let body =
    Printf.sprintf
      "SLP compile time:    %.3fs (16 kernels x 5, median of 9 passes)\n\
       Global compile time: %.3fs\n\
       Overhead of the holistic analysis: %s (median of 9 interleaved pairs, \
       range %s to %s; paper: +27%% on average).\n"
      (median (List.map fst pairs))
      (median (List.map snd pairs))
      (pct (median overheads))
      (pct (List.fold_left min infinity overheads))
      (pct (List.fold_left max neg_infinity overheads))
  in
  { id = "overhead"; title = "Compilation overhead of Global over SLP"; body }

(* -- ablations -------------------------------------------------------- *)

let ablations () =
  let module G = Slp_core.Grouping in
  let module S = Slp_core.Schedule in
  let grouping g = { Pipeline.default_options with Pipeline.grouping = g } in
  let schedule s = { Pipeline.default_options with Pipeline.schedule = s } in
  let configs =
    [
      ("paper default", Pipeline.default_options);
      ( "weights computed once",
        grouping { G.default_options with G.recompute_weights = false } );
      ( "arbitrary conflict elimination",
        grouping { G.default_options with G.elimination = Slp_core.Groupgraph.Arbitrary } );
      ("no scatter penalty", grouping { G.default_options with G.scatter_penalty = 0.0 });
      ( "program-order scheduling",
        schedule { S.default_options with S.selection = S.Program_order } );
      ( "exhaustive lane-order search",
        schedule { S.default_options with S.ordering_search = S.Exhaustive } );
    ]
  in
  let evaluate options =
    List.fold_left
      (fun (cycles, scalar, reuses, correct) (b : Suite.t) ->
        let prog = Suite.program b in
        let c =
          Pipeline.compile ~unroll:b.Suite.unroll ~options ~scheme:Pipeline.Global
            ~machine:intel prog
        in
        let r = Pipeline.execute c in
        let s =
          Pipeline.compile ~unroll:b.Suite.unroll ~scheme:Pipeline.Scalar ~machine:intel
            prog
        in
        let rs = Pipeline.timing s in
        let reuse =
          match c.Pipeline.plan with
          | None -> 0
          | Some plan ->
              List.fold_left
                (fun acc (bp : Slp_core.Driver.block_plan) ->
                  match bp.Slp_core.Driver.schedule with
                  | Some sch ->
                      acc
                      + sch.S.stats.S.direct_reuses
                      + sch.S.stats.S.permuted_reuses
                  | None -> acc)
                0 plan.Slp_core.Driver.plans
        in
        ( cycles +. Counters.total_cycles r.Pipeline.counters,
          scalar +. Counters.total_cycles rs,
          reuses + reuse,
          correct && r.Pipeline.correct ))
      (0.0, 0.0, 0, true) Suite.all
  in
  let rows =
    List.map
      (fun (name, options) ->
        let cycles, scalar, reuses, correct = evaluate options in
        [
          name;
          pct (1.0 -. (cycles /. scalar));
          string_of_int reuses;
          (if correct then "yes" else "NO");
        ])
      configs
  in
  let body =
    Tab.render
      ~header:[ "configuration"; "avg reduction"; "static reuses"; "correct" ]
      ~rows
    ^ "\nEach row reruns the whole suite under the Global scheme with one design\n\
       choice altered (DESIGN.md's ablation list).  'static reuses' counts the\n\
       direct+permuted superword reuses the scheduler captured across all\n\
       vectorized blocks.\n"
  in
  { id = "ablations"; title = "Ablations of the holistic framework's design choices"; body }

(* -- register-resident reuse value ------------------------------------ *)

let reuse_value () =
  let rows =
    List.filter_map
      (fun (b : Suite.t) ->
        let prog = Suite.program b in
        let run register_reuse =
          let c =
            Pipeline.compile ~unroll:b.Suite.unroll
              ~options:{ Pipeline.default_options with Pipeline.register_reuse }
              ~scheme:Pipeline.Global ~machine:intel prog
          in
          Pipeline.execute c
        in
        let with_reuse = run true and without = run false in
        let cw = Counters.total_cycles with_reuse.Pipeline.counters in
        let co = Counters.total_cycles without.Pipeline.counters in
        if
          with_reuse.Pipeline.counters.Counters.vector_ops = 0
          || not (with_reuse.Pipeline.correct && without.Pipeline.correct)
        then None
        else
          Some
            [
              b.Suite.name;
              pct (1.0 -. (cw /. co));
              string_of_int (Counters.packing_instructions without.Pipeline.counters);
              string_of_int (Counters.packing_instructions with_reuse.Pipeline.counters);
            ])
      Suite.all
  in
  let body =
    Tab.render
      ~header:
        [ "Benchmark"; "cycle saving from reuse"; "packing ops w/o reuse"; "with reuse" ]
      ~rows
    ^ "\nThe same Global plans lowered twice: once with register-resident\n\
       superword reuse (direct, permuted, two-source shuffles) and once\n\
       rebuilding every source pack — isolating the mechanism the paper's\n\
       reuse-driven grouping exists to exploit.  Only vectorized benchmarks\n\
       are listed; both variants pass the semantics check.\n"
  in
  {
    id = "reuse_value";
    title = "Value of register-resident superword reuse (Global, Intel)";
    body;
  }

(* -- machine-readable metrics ----------------------------------------- *)

let metrics_json () =
  let module J = Slp_obs.Json in
  let kernels =
    List.map
      (fun (b : Suite.t) ->
        let schemes =
          List.map
            (fun scheme ->
              let m = Runner.measure ~machine:intel ~scheme b in
              ( Pipeline.scheme_name scheme,
                J.Obj
                  [
                    ("cycles", J.Num (Counters.total_cycles m.Runner.counters));
                    ( "dynamic_instructions",
                      J.Num
                        (float_of_int
                           (Counters.dynamic_instructions m.Runner.counters)) );
                    ( "packing_instructions",
                      J.Num
                        (float_of_int
                           (Counters.packing_instructions m.Runner.counters)) );
                    ("compile_seconds", J.Num m.Runner.compile_seconds);
                    ("correct", J.Bool m.Runner.correct);
                  ] ))
            Pipeline.all_schemes
        in
        (* Per-statement attribution of the Global run: where the
           cycles of the paper's scheme actually go on this kernel. *)
        let profile =
          let prog = Suite.program b in
          let c =
            Pipeline.compile ~unroll:b.Suite.unroll ~scheme:Pipeline.Global
              ~machine:intel prog
          in
          let obs = Slp_obs.Obs.create ~profile:true () in
          ignore (Pipeline.execute ~check:false ~obs c);
          match obs.Slp_obs.Obs.profile with
          | Some p -> Slp_obs.Profile.to_json p
          | None -> J.Null
        in
        J.Obj
          [
            ("kernel", J.Str b.Suite.name);
            ("suite", J.Str (Suite.suite_name b.Suite.suite));
            ("schemes", J.Obj schemes);
            ("global_profile", profile);
          ])
      Suite.all
  in
  J.to_string
    (J.Obj
       [
         ("machine", J.Str intel.Machine.name); ("seed", J.Num 42.0);
         ("kernels", J.Arr kernels);
       ])

let all () =
  [
    table1 (); table2 (); table3 (); fig16 (); fig17 (); fig18 (); fig19 ();
    fig20 (); fig21 (); compile_overhead (); ablations (); reuse_value ();
  ]

let render r = Printf.sprintf "== %s ==\n%s\n" r.title r.body
