(* Smoke tests for the experiment harness: the cheap reports render,
   the runner memoises, and measurements are deterministic.  (The full
   figures run in bin/experiments.exe; they are too heavy for the unit
   test suite.) *)

module E = Slp_harness.Experiments
module Runner = Slp_harness.Runner
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Suite = Slp_benchmarks.Suite
module Plan_digest = Slp_harness.Plan_digest
module Fnv = Slp_util.Fnv

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_tables_render () =
  let t1 = E.table1 () in
  Alcotest.(check bool) "table1 mentions the Xeon" true
    (contains (E.render t1) "E7450");
  let t2 = E.table2 () in
  Alcotest.(check bool) "table2 mentions the Phenom" true
    (contains (E.render t2) "Phenom");
  let t3 = E.table3 () in
  List.iter
    (fun (b : Suite.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "table3 lists %s" b.Suite.name)
        true
        (contains t3.E.body b.Suite.name))
    Suite.all

let test_runner_memoises () =
  Runner.clear_cache ();
  let b = Suite.find "dealII" in
  let m1 = Runner.measure ~machine:Machine.intel_dunnington ~scheme:Pipeline.Scalar b in
  let m2 = Runner.measure ~machine:Machine.intel_dunnington ~scheme:Pipeline.Scalar b in
  Alcotest.(check bool) "same physical measurement" true (m1 == m2);
  Alcotest.(check bool) "correct" true m1.Runner.correct;
  Runner.clear_cache ();
  let m3 = Runner.measure ~machine:Machine.intel_dunnington ~scheme:Pipeline.Scalar b in
  Alcotest.(check (float 0.0)) "deterministic across cache clears"
    (Runner.cycles m1) (Runner.cycles m3)

let test_reduction_math () =
  Runner.clear_cache ();
  let b = Suite.find "dealII" in
  let scalar = Runner.measure ~machine:Machine.intel_dunnington ~scheme:Pipeline.Scalar b in
  Alcotest.(check (float 1e-9)) "reduction of baseline against itself is zero" 0.0
    (Runner.reduction ~baseline:scalar scalar)

(* Plan digests pinned: one FNV hash per scheme over the rendered plan
   and program of every compile in a fixed sample, so a change that
   moves any plan fails here.  The suite jobs cannot tell precise from
   syntactic dependence pairs (the two are equal on every suite
   block), so a sample of generated kernels rides along: there the
   pairs differ on about a third of the blocks and Global plans some
   of them differently under each.  Only a change that means to change
   results, or the generator, may re-record these values, giving the
   old and new ones. *)
let pinned_suite_digests =
  [
    ("Scalar", "20000f6a1adce599");
    ("Native", "6b0e86e447272ed8");
    ("SLP", "775305efeabfc9f6");
    ("Global", "93e125622b909106");
    ("Global+Layout", "a5d5ac8c7e0e6fa9");
    ("Optimal", "203c417183e72a74");
  ]

let pinned_fuzz_digests =
  [
    ("Scalar", "d43da47ab0b37055");
    ("Native", "6c50f049234763b6");
    ("SLP", "b62048634d07144f");
    ("Global", "eed7fea483d884b0");
    ("Global+Layout", "64cf2821efbcb18d");
    ("Optimal", "7ae415409f392fd7");
  ]

let check_pinned what pinned digest_of =
  List.iter
    (fun scheme ->
      let name = Pipeline.scheme_name scheme in
      Alcotest.(check string)
        (Printf.sprintf "%s %s" what name)
        (List.assoc name pinned)
        (Fnv.to_hex (digest_of scheme)))
    Pipeline.all_schemes

let test_suite_plan_digests_pinned () =
  let digests = List.combine (Plan_digest.jobs ()) (Plan_digest.lines ()) in
  check_pinned "suite" pinned_suite_digests (fun scheme ->
      List.fold_left
        (fun h ((j : Plan_digest.job), line) ->
          if j.Plan_digest.scheme = scheme then Fnv.combine h line else h)
        (Fnv.hash64 "") digests)

(* 100 generated kernels (seeds 7000-7099) on the 128-bit Intel model
   at unroll 2; a compile that raises hashes its exception. *)
let test_fuzz_plan_digests_pinned () =
  let programs =
    List.init 100 (fun i ->
        let seed = 7000 + i in
        Slp_fuzz.Gen.program
          ~name:(Printf.sprintf "pin%d" seed)
          (Slp_util.Prng.create seed))
  in
  check_pinned "fuzz" pinned_fuzz_digests (fun scheme ->
      List.fold_left
        (fun h prog ->
          Fnv.combine h
            (match
               Pipeline.compile ~unroll:2 ~scheme
                 ~machine:Machine.intel_dunnington prog
             with
            | c -> Plan_digest.render c
            | exception e -> "raised " ^ Printexc.to_string e))
        (Fnv.hash64 "") programs)

let () =
  Alcotest.run "harness"
    [
      ( "reports",
        [
          Alcotest.test_case "tables render" `Quick test_tables_render;
          Alcotest.test_case "runner memoises" `Quick test_runner_memoises;
          Alcotest.test_case "reduction math" `Quick test_reduction_math;
        ] );
      ( "plan digests",
        [
          Alcotest.test_case "suite jobs pinned" `Slow
            test_suite_plan_digests_pinned;
          Alcotest.test_case "generated kernels pinned" `Slow
            test_fuzz_plan_digests_pinned;
        ] );
    ]
