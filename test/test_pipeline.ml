(* End-to-end pipeline tests: every scheme must produce vectorized code
   whose execution computes exactly what scalar execution computes, and
   the holistic schemes should not lose to the baseline on
   reuse-friendly kernels. *)

module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Parser = Slp_frontend.Parser
module Counters = Slp_vm.Counters

let saxpy_src =
  {|
f64 X[256];
f64 Y[256];
f64 Z[256];
for i = 0 to 256 {
  Z[i] = 2.5 * X[i] + Y[i];
}
|}

let stencil_src =
  {|
f64 A[260];
f64 B[260];
for t = 0 to 4 {
  for i = 1 to 255 {
    B[i] = 0.25 * A[i-1] + 0.5 * A[i] + 0.25 * A[i+1];
  }
}
|}

(* A reuse-rich kernel shaped like the paper's Figure 15. *)
let reuse_src =
  {|
f64 A[1024];
f64 B[4096];
f64 q;
f64 r;
for i = 0 to 256 {
  q = B[4*i+1];
  r = B[4*i+3];
  A[2*i] = B[4*i] * q + r;
  A[2*i+1] = B[4*i+2] * r + q;
}
|}

let strided_src =
  {|
f64 A[4096];
f64 C[2048];
for t = 0 to 16 {
  for i = 0 to 512 {
    C[2*i] = A[4*i] * 1.5;
    C[2*i+1] = A[4*i+3] * 1.5;
  }
}
|}

(* Same access pattern but a single pass: replication cannot amortise,
   so the profitability gate must skip it. *)
let strided_once_src =
  {|
f64 A[4096];
f64 C[2048];
for i = 0 to 512 {
  C[2*i] = A[4*i] * 1.5;
  C[2*i+1] = A[4*i+3] * 1.5;
}
|}

let kernels =
  [ ("saxpy", saxpy_src); ("stencil", stencil_src); ("reuse", reuse_src);
    ("strided", strided_src) ]

let machines = [ Machine.intel_dunnington; Machine.amd_phenom_ii ]

let test_correctness () =
  List.iter
    (fun (name, src) ->
      let prog = Parser.parse ~name src in
      List.iter
        (fun machine ->
          List.iter
            (fun scheme ->
              let c = Pipeline.compile ~scheme ~machine prog in
              let r = Pipeline.execute c in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/%s semantics preserved" name
                   machine.Machine.name
                   (Pipeline.scheme_name scheme))
                true r.Pipeline.correct)
            Pipeline.all_schemes)
        machines)
    kernels

let test_vectorization_happens () =
  let prog = Parser.parse ~name:"saxpy" saxpy_src in
  let c = Pipeline.compile ~scheme:Pipeline.Global ~machine:Machine.intel_dunnington prog in
  let r = Pipeline.execute c in
  Alcotest.(check bool)
    "global scheme emits vector operations" true
    (r.Pipeline.counters.Counters.vector_ops > 0)

let test_speedup_on_saxpy () =
  let prog = Parser.parse ~name:"saxpy" saxpy_src in
  List.iter
    (fun scheme ->
      let c = Pipeline.compile ~scheme ~machine:Machine.intel_dunnington prog in
      let cycles c = Counters.total_cycles (Pipeline.execute ~check:false c).Pipeline.counters in
      let s = cycles { c with Pipeline.scheme = Pipeline.Scalar; vector = None } /. cycles c in
      Alcotest.(check bool)
        (Printf.sprintf "%s speeds up contiguous saxpy (got %.3f)"
           (Pipeline.scheme_name scheme) s)
        true (s > 1.0))
    [ Pipeline.Native; Pipeline.Slp; Pipeline.Global; Pipeline.Global_layout ]

let test_global_not_worse_than_slp () =
  List.iter
    (fun (name, src) ->
      let prog = Parser.parse ~name src in
      let machine = Machine.intel_dunnington in
      let cycles scheme =
        let c = Pipeline.compile ~scheme ~machine prog in
        let r = Pipeline.execute ~check:false c in
        Counters.total_cycles r.Pipeline.counters
      in
      let slp = cycles Pipeline.Slp and global = cycles Pipeline.Global in
      Alcotest.(check bool)
        (Printf.sprintf "%s: Global (%.0f) <= SLP (%.0f) * 1.02" name global slp)
        true
        (global <= slp *. 1.02))
    kernels

let test_layout_gate_skips_single_pass () =
  let prog = Parser.parse ~name:"strided_once" strided_once_src in
  let c =
    Pipeline.compile ~scheme:Pipeline.Global_layout ~machine:Machine.intel_dunnington
      prog
  in
  Alcotest.(check int) "no replica for single-pass kernel" 0 c.Pipeline.replica_count

let test_layout_replicates_repeated () =
  let prog = Parser.parse ~name:"strided" strided_src in
  let c =
    Pipeline.compile ~scheme:Pipeline.Global_layout ~machine:Machine.intel_dunnington
      prog
  in
  Alcotest.(check bool) "replicas created for repeated kernel" true
    (c.Pipeline.replica_count > 0)

let test_layout_helps_strided () =
  let prog = Parser.parse ~name:"strided" strided_src in
  let machine = Machine.intel_dunnington in
  let cycles scheme =
    let c = Pipeline.compile ~scheme ~machine prog in
    let r = Pipeline.execute ~check:false c in
    Counters.total_cycles r.Pipeline.counters
  in
  let global = cycles Pipeline.Global and layout = cycles Pipeline.Global_layout in
  Alcotest.(check bool)
    (Printf.sprintf "layout (%.0f) not worse than global (%.0f) on strided kernel"
       layout global)
    true
    (layout < global)

(* The scalar-reference check covers live-out scalars, not only
   arrays: a vector program whose arrays are right but whose reduction
   leaves a wrong sum is not correct. *)
let test_check_covers_live_out_scalars () =
  let open Slp_ir in
  let prog =
    Parser.parse ~name:"dot"
      {|
f64 X[256];
f64 Z[256];
f64 acc;
for i = 0 to 256 {
  Z[i] = Z[i] + 0.5 * X[i];
  acc = acc + X[i] * X[i];
}
|}
  in
  let machine = Machine.intel_dunnington in
  let c = Pipeline.compile ~scheme:Pipeline.Global ~machine prog in
  Alcotest.(check bool) "as compiled" true (Pipeline.execute c).Pipeline.correct;
  let v = Option.get c.Pipeline.vector in
  let bump =
    Stmt.make ~id:999 ~lhs:(Operand.Scalar "acc")
      ~rhs:(Expr.Bin (Types.Add, Expr.Leaf (Operand.Scalar "acc"), Expr.Leaf (Operand.Const 1.0)))
  in
  let wrong =
    { v with Slp_vm.Visa.body = v.Slp_vm.Visa.body @ [ Slp_vm.Visa.Block [ Slp_vm.Visa.Sstmt bump ] ] }
  in
  let r, memory = Pipeline.execute_with_memory { c with Pipeline.vector = Some wrong } in
  Alcotest.(check bool) "arrays still match" true
    (Slp_vm.Memory.same_contents
       (Slp_vm.Scalar_exec.final_memory ~machine c.Pipeline.reference)
       memory);
  Alcotest.(check bool) "wrong live-out sum caught" false r.Pipeline.correct

(* Global+Layout lowers both of its variants under the caller's
   [register_reuse], as every other scheme does. *)
let test_layout_register_reuse () =
  let module Suite = Slp_benchmarks.Suite in
  let b = Suite.find "soplex" in
  let compile register_reuse =
    Pipeline.compile ~unroll:b.Suite.unroll
      ~options:{ Pipeline.default_options with Pipeline.register_reuse }
      ~scheme:Pipeline.Global_layout ~machine:Machine.intel_dunnington (Suite.program b)
  in
  let visa c = Format.asprintf "%a" Slp_vm.Visa.pp_program (Option.get c.Pipeline.vector) in
  let without = compile false in
  Alcotest.(check bool) "Visa changes without register reuse" true
    (visa (compile true) <> visa without);
  Alcotest.(check bool) "still correct" true (Pipeline.execute without).Pipeline.correct

(* The layout-aware gate prices a pack as a replica only when
   [Array_layout.apply] builds that replica, so a Global+Layout compile
   that ends with none commits exactly Global's schedules, at Global's
   estimates.  Over the suite and 400 generated kernels, both
   machines. *)
let test_no_replica_commits_global () =
  let module Suite = Slp_benchmarks.Suite in
  let module Driver = Slp_core.Driver in
  let module Cost = Slp_core.Cost in
  let committed (c : Pipeline.compiled) =
    List.map
      (fun (bp : Driver.block_plan) ->
        let label = bp.Driver.block.Slp_ir.Block.label in
        match (bp.Driver.schedule, bp.Driver.estimate) with
        | Some s, Some e ->
            Format.asprintf "%s %a@.%h %h %d %d %d %d %d %d" label Slp_core.Schedule.pp s
              e.Cost.scalar_cost e.Cost.vector_cost e.Cost.vector_ops e.Cost.vector_memops
              e.Cost.scalar_memops_in_packs e.Cost.inserts e.Cost.extracts e.Cost.permutes
        | _ -> label ^ " scalar")
      (Option.get c.Pipeline.plan).Driver.plans
  in
  let check name ?unroll prog =
    List.iter
      (fun machine ->
        let compile scheme = Pipeline.compile ?unroll ~verify:false ~scheme ~machine prog in
        let layout = compile Pipeline.Global_layout in
        if layout.Pipeline.replica_count = 0 then
          Alcotest.(check (list string))
            (Printf.sprintf "%s on %s" name (Machine.to_string machine))
            (committed (compile Pipeline.Global))
            (committed layout))
      machines
  in
  List.iter (fun b -> check b.Suite.name ~unroll:b.Suite.unroll (Suite.program b)) Suite.all;
  let config = { Slp_fuzz.Harness.default_config with Slp_fuzz.Harness.seed = 7 } in
  for i = 0 to 399 do
    check (Printf.sprintf "seed 7 case %d" i) (Slp_fuzz.Harness.case_program config i)
  done

(* Every measured Global+Layout arbitration of the suite, pinned: one
   FNV hash per machine over each [LAYOUT-ARBITRATE-*] remark (its id,
   and its message, which prints both probes' cycles) and the chosen
   variant's replica and scalar-offset counts, compiled as the
   compile_wide benchmark compiles (suite unroll scaled by width/128).
   Plan digests pin only the winner; this pin also moves when a probe's
   cycles drift without flipping the verdict.  30 arbitrations run: 22
   keep the layout, 8 discard it.  A changed hash means the probes
   measure differently. *)
let test_arbitrations_pinned () =
  let module Suite = Slp_benchmarks.Suite in
  let intel = Machine.intel_dunnington in
  let apply = ref 0 and skip = ref 0 in
  let hash (label, machine) =
    let fields =
      List.concat_map
        (fun (b : Suite.t) ->
          let unroll = Suite.unroll_at b ~simd_bits:machine.Machine.simd_bits in
          let obs = Slp_obs.Obs.create ~remarks:true () in
          let c =
            Pipeline.compile ~obs ~unroll ~verify:false ~scheme:Pipeline.Global_layout
              ~machine (Suite.program b)
          in
          let arbitrations =
            List.filter_map
              (fun (r : Slp_obs.Remark.t) ->
                match r.Slp_obs.Remark.id with
                | "LAYOUT-ARBITRATE-APPLY" ->
                    incr apply;
                    Some [ r.Slp_obs.Remark.id; r.Slp_obs.Remark.message ]
                | "LAYOUT-ARBITRATE-SKIP" ->
                    incr skip;
                    Some [ r.Slp_obs.Remark.id; r.Slp_obs.Remark.message ]
                | _ -> None)
              (Slp_obs.Obs.remarks obs)
          in
          b.Suite.name
          :: string_of_int c.Pipeline.replica_count
          :: string_of_int (List.length c.Pipeline.scalar_offsets)
          :: List.concat arbitrations)
        Suite.all
    in
    (label, Slp_util.Fnv.to_hex (Slp_util.Fnv.hash_fields fields))
  in
  Alcotest.(check (list (pair string string)))
    "one hash per machine"
    [
      ("Intel 128", "af7daefab0887780");
      ("AMD 128", "9092e5386ac6a1fe");
      ("Intel 256", "a403f0441ccd7b5a");
    ]
    (List.map hash
       [
         ("Intel 128", intel);
         ("AMD 128", Machine.amd_phenom_ii);
         ("Intel 256", Machine.with_simd_bits intel 256);
       ]);
  Alcotest.(check (pair int int)) "arbitrations kept, discarded" (22, 8) (!apply, !skip)

(* The dependence-pair contract.  C[2*i] and C[i+1100] conflict
   syntactically (their subscripts differ by a non-constant) but never
   within the loop box, so precise and syntactic pairs differ here:
   Native and SLP must plan under [Block.dep_pairs], and the holistic
   schemes under the precise pairs of the prepared block, which a
   layout rewrite keeps. *)
let pairs_src =
  {|
f64 A[4096];
f64 C[2048];
for t = 0 to 16 {
  for i = 0 to 512 {
    C[2*i] = A[4*i] * 1.5;
    C[2*i+1] = A[4*i+3] * 1.5;
    C[i+1100] = A[i] + 2.0;
  }
}
|}

let test_plans_record_their_pairs () =
  let open Slp_ir in
  let module Depend = Slp_depend.Depend in
  let module Driver = Slp_core.Driver in
  let prog = Parser.parse ~name:"pairs" pairs_src in
  let machine = Machine.intel_dunnington in
  List.iter
    (fun scheme ->
      let c = Pipeline.compile ~scheme ~machine prog in
      let prepared = Depend.blocks_with_box c.Pipeline.reference in
      let plans = (Option.get c.Pipeline.plan).Driver.plans in
      let name = Pipeline.scheme_name scheme in
      Alcotest.(check int) (name ^ ": one plan per block") (List.length prepared)
        (List.length plans);
      Alcotest.(check bool) (name ^ ": some block's pairs differ") true
        (List.exists
           (fun (b, box) -> Depend.block_dep_pairs ~box b <> Block.dep_pairs b)
           prepared);
      List.iter2
        (fun (bp : Driver.block_plan) (b, box) ->
          let expected =
            match scheme with
            | Pipeline.Native | Pipeline.Slp -> Block.dep_pairs b
            | _ -> Depend.block_dep_pairs ~box b
          in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s: %s pairs" name b.Block.label)
            expected bp.Driver.deps)
        plans prepared)
    Pipeline.[ Native; Slp; Global; Global_layout; Optimal ];
  let laid = Pipeline.compile ~scheme:Pipeline.Global_layout ~machine prog in
  Alcotest.(check bool) "layout rewrote the kernel" true
    (laid.Pipeline.replica_count > 0)

(* A schedule that swaps two statements related only by a syntactic
   pair: valid under the precise pairs, invalid under the syntactic. *)
let test_is_valid_reads_its_pairs () =
  let open Slp_ir in
  let module Depend = Slp_depend.Depend in
  let module Schedule = Slp_core.Schedule in
  let block =
    Block.of_rhs ~label:"bb"
      [
        (Operand.Elem ("C", [ Affine.make [ ("i", 2) ] 0 ]), Expr.Infix.(cst 1.0));
        (Operand.Elem ("C", [ Affine.make [ ("i", 1) ] 9 ]), Expr.Infix.(cst 2.0));
      ]
  in
  let box =
    Depend.Box.add Depend.Box.empty "i"
      (Depend.Box.of_bounds ~lo:(Affine.const 0) ~hi:(Affine.const 8) ~step:1)
  in
  let precise = Depend.block_dep_pairs ~box block in
  let syntactic = Block.dep_pairs block in
  Alcotest.(check (list (pair int int))) "precise pairs" [] precise;
  Alcotest.(check (list (pair int int))) "syntactic pairs" [ (1, 2) ] syntactic;
  let swapped =
    Schedule.analyze
      ~config:(Slp_core.Config.make ~datapath_bits:128 ())
      (Schedule.Facts.make ~deps:[] block)
      [ Schedule.Single 2; Schedule.Single 1 ]
  in
  Alcotest.(check bool) "valid under precise pairs" true
    (Schedule.is_valid ~dep_pairs:precise block swapped);
  Alcotest.(check bool) "invalid under syntactic pairs" false
    (Schedule.is_valid ~dep_pairs:syntactic block swapped)

(* What [slpc --run --profile] prints, pinned: every scheme on the five
   example kernels at 1 and 2 cores, one FNV hash per core count over
   each run's standard output (the counters, the match verdict, the
   speedup and the profile's hot statements and per-array levels) and
   exit status.
   Profiled runs simulate every access today; a change that lets them
   skip work must leave this hash as it is.  Re-record only in a change
   meant to alter what a profiled run reports, with old and new values
   in CHANGES.md. *)
let test_slpc_profile_pinned () =
  let find paths = List.find Sys.file_exists paths in
  let slpc = find [ "../bin/slpc.exe"; "_build/default/bin/slpc.exe" ] in
  let dir = find [ "../examples/kernels"; "examples/kernels" ] in
  let kernels =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".kern")
    |> List.sort compare
  in
  Alcotest.(check int) "five example kernels" 5 (List.length kernels);
  let out = Filename.temp_file "slpc-profile" ".txt" in
  let core_counts = [ 1; 2 ] in
  let hashes = Array.make (List.length core_counts) (Slp_util.Fnv.hash64 "") in
  List.iter
    (fun kernel ->
      List.iter
        (fun scheme ->
          List.iteri
            (fun i cores ->
              let scheme = Pipeline.scheme_to_string scheme in
              let status =
                Sys.command
                  (Filename.quote_command slpc ~stdout:out ~stderr:Filename.null
                     [
                       Filename.concat dir kernel; "-s"; scheme; "--run"; "--profile";
                       "--cores"; string_of_int cores;
                     ])
              in
              let text = In_channel.with_open_bin out In_channel.input_all in
              let label = Printf.sprintf "%s -s %s --cores %d" kernel scheme cores in
              Alcotest.(check int) (label ^ ": exit status") 0 status;
              Alcotest.(check bool) (label ^ ": matches the scalar reference") true
                (List.mem "semantics vs scalar reference: match"
                   (String.split_on_char '\n' text));
              hashes.(i) <- Slp_util.Fnv.combine (Slp_util.Fnv.combine hashes.(i) label) text)
            core_counts)
        Pipeline.all_schemes)
    kernels;
  Sys.remove out;
  List.iter2
    (fun (tag, h) expected ->
      Alcotest.(check string) ("slpc --run --profile output, " ^ tag) expected (Slp_util.Fnv.to_hex h))
    [ ("one core", hashes.(0)); ("two cores", hashes.(1)) ]
    [ "646a321e0768c69b"; "5360e532d4ea63da" ]

let () =
  Alcotest.run "pipeline"
    [
      ( "end_to_end",
        [
          Alcotest.test_case "semantic correctness (all schemes x machines)" `Quick
            test_correctness;
          Alcotest.test_case "vectorization happens" `Quick test_vectorization_happens;
          Alcotest.test_case "saxpy speedups" `Quick test_speedup_on_saxpy;
          Alcotest.test_case "global never loses to slp" `Quick
            test_global_not_worse_than_slp;
          Alcotest.test_case "layout gate skips single pass" `Quick
            test_layout_gate_skips_single_pass;
          Alcotest.test_case "layout replicates repeated kernel" `Quick
            test_layout_replicates_repeated;
          Alcotest.test_case "layout helps strided" `Quick test_layout_helps_strided;
          Alcotest.test_case "check covers live-out scalars" `Quick
            test_check_covers_live_out_scalars;
          Alcotest.test_case "layout honours register_reuse" `Quick
            test_layout_register_reuse;
          Alcotest.test_case "no replica commits Global's plans" `Slow
            test_no_replica_commits_global;
          Alcotest.test_case "every arbitration pinned" `Slow test_arbitrations_pinned;
        ] );
      ( "slpc",
        [
          Alcotest.test_case "--run --profile output pinned" `Slow
            test_slpc_profile_pinned;
        ] );
      ( "dep_pairs",
        [
          Alcotest.test_case "plans record their scheme's pairs" `Quick
            test_plans_record_their_pairs;
          Alcotest.test_case "validity reads the given pairs" `Quick
            test_is_valid_reads_its_pairs;
        ] );
    ]
