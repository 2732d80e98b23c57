(* Validation of the 16-kernel benchmark suite (Table 3): every kernel
   parses, validates, runs deterministically, and carries the expected
   metadata. *)

open Slp_ir
module Suite = Slp_benchmarks.Suite
module Machine = Slp_machine.Machine

let paper_names =
  [
    "cactusADM"; "soplex"; "lbm"; "milc"; "povray"; "gromacs"; "calculix";
    "dealII"; "wrf"; "namd"; "ua"; "ft"; "bt"; "sp"; "mg"; "cg";
  ]

let test_suite_composition () =
  Alcotest.(check int) "sixteen benchmarks" 16 (List.length Suite.all);
  Alcotest.(check (list string)) "the paper's Table 3 names" paper_names
    (List.map (fun (b : Suite.t) -> b.Suite.name) Suite.all);
  Alcotest.(check int) "ten SPEC2006" 10
    (List.length
       (List.filter (fun (b : Suite.t) -> b.Suite.suite = Suite.Spec2006) Suite.all));
  Alcotest.(check int) "six NAS" 6 (List.length Suite.nas);
  List.iter
    (fun (b : Suite.t) ->
      Alcotest.(check bool)
        (b.Suite.name ^ " NAS kernels are multicore-capable")
        (b.Suite.suite = Suite.Nas)
        b.Suite.multicore)
    Suite.all

let test_kernels_validate () =
  List.iter
    (fun (b : Suite.t) ->
      let prog = Suite.program b in
      match Program.validate prog with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s does not validate: %s" b.Suite.name m)
    Suite.all

let test_kernels_have_loops () =
  List.iter
    (fun (b : Suite.t) ->
      let prog = Suite.program b in
      Alcotest.(check bool)
        (b.Suite.name ^ " has a loop nest")
        true
        (Program.max_loop_depth prog >= 2);
      Alcotest.(check bool)
        (b.Suite.name ^ " has statements")
        true
        (Program.stmt_count prog >= 1);
      Alcotest.(check bool)
        (b.Suite.name ^ " unroll factor sane")
        true
        (b.Suite.unroll >= 1 && b.Suite.unroll <= 8))
    Suite.all

let test_kernels_deterministic () =
  List.iter
    (fun (b : Suite.t) ->
      let prog = Suite.program b in
      let machine = Machine.intel_dunnington in
      let r1 = Slp_vm.Scalar_exec.run ~machine prog in
      let r2 = Slp_vm.Scalar_exec.run ~machine prog in
      Alcotest.(check bool)
        (b.Suite.name ^ " deterministic")
        true
        (Slp_vm.Memory.same_contents r1.Slp_vm.Scalar_exec.memory
           r2.Slp_vm.Scalar_exec.memory);
      Alcotest.(check int)
        (b.Suite.name ^ " cycle-deterministic")
        r1.Slp_vm.Scalar_exec.counters.Slp_vm.Counters.centicycles
        r2.Slp_vm.Scalar_exec.counters.Slp_vm.Counters.centicycles)
    Suite.all

let test_find () =
  Alcotest.(check string) "find" "milc" (Suite.find "milc").Suite.name;
  match Suite.find "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "found a non-existent benchmark"

let () =
  Alcotest.run "benchmarks"
    [
      ( "suite",
        [
          Alcotest.test_case "composition" `Quick test_suite_composition;
          Alcotest.test_case "kernels validate" `Quick test_kernels_validate;
          Alcotest.test_case "loop structure" `Quick test_kernels_have_loops;
          Alcotest.test_case "deterministic" `Quick test_kernels_deterministic;
          Alcotest.test_case "lookup" `Quick test_find;
        ] );
    ]
