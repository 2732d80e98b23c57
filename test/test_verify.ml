(* Verifier tests.

   Two halves prove the verifier from both sides: the mutation tests
   feed every deliberately-corrupted artifact from {!Slp_verify.Corrupt}
   through the checkers and assert the corruption is rejected with its
   expected rule id (checkers actually fire); the clean-suite tests
   compile every benchmark kernel under every scheme with verification
   enabled and assert zero errors (checkers are not over-strict).  The
   dependence rules get their corrupted graphs here: each DEP rule is
   handed one and must report it with its message. *)

module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Verify = Slp_verify.Verify
module D = Slp_verify.Diagnostic
module Corrupt = Slp_verify.Corrupt
module Suite = Slp_benchmarks.Suite

(* -- mutation tests: every corruption flagged with its rule ------------- *)

let mutation_case (c : Corrupt.case) () =
  let diags = c.Corrupt.diags () in
  let hit =
    List.exists (fun (d : D.t) -> d.D.rule = c.Corrupt.expected_rule && D.is_error d) diags
  in
  (* Other rules may legitimately fire alongside (a reordered schedule
     can break both SCHED02 and SCHED03); the expected one must be
     among them. *)
  if not hit then
    Alcotest.failf "corruption %S not flagged with %s; diagnostics: [%s]"
      c.Corrupt.name c.Corrupt.expected_rule
      (String.concat "; " (List.map D.to_string diags))

let layer_of_rule rule = String.sub rule 0 2

let test_mutation_coverage () =
  (* The corruption corpus must span all four verifier layers. *)
  let layers =
    List.sort_uniq compare
      (List.map (fun c -> layer_of_rule c.Corrupt.expected_rule) Corrupt.cases)
  in
  Alcotest.(check (list string)) "layers covered" [ "IR"; "PA"; "SC"; "VI" ] layers;
  Alcotest.(check bool) "at least 8 distinct mutations" true
    (List.length Corrupt.cases >= 8)

(* -- dependence rules: every DEP rule fires on a corrupted graph -------- *)

module Depend = Slp_depend.Depend
module Dep_verify = Slp_verify.Dep_verify

let dep_source =
  "f64 s;\nf64 A[64];\nf64 B[64];\n\
   for i = 0 to 8 {\n\
  \  A[i] = B[i];\n\
  \  B[i+1] = A[i];\n\
  \  s = s + A[i];\n\
   }\n"

(* S1 -> S2 on A, loop-independent, and S2 -> S1 on B, carried on [i]
   at distance 1: the graph [Depend.of_program] builds for
   [dep_source], whose verdict is Serial. *)
let li_edge =
  {
    Depend.src = 1;
    dst = 2;
    array = "A";
    ekind = Depend.Flow;
    carrier = None;
    distance = None;
    directions = [ ("i", Depend.Eq) ];
    exact = true;
    reason = None;
  }

let carried_edge =
  {
    li_edge with
    Depend.src = 2;
    dst = 1;
    array = "B";
    carrier = Some "i";
    distance = Some 1;
    directions = [ ("i", Depend.Lt) ];
  }

(* Corrupted graphs, each with the one diagnostic (rule, where,
   message) it must raise. *)
let dep_corruptions =
  let edge e = ([ e ], []) and reduction r = ([], [ r ]) in
  let li = "S2 -> S1 (A, flow)" and carried = "S2 -> S1 (B, flow, carried on i)" in
  [
    ( "backward loop-independent edge",
      edge { li_edge with Depend.src = 2; dst = 1 },
      Depend.Serial "par-shape",
      ("DEP01-li-order", li, "loop-independent edge does not run forward in program order") );
    ( "carried distance 0",
      edge { carried_edge with Depend.distance = Some 0 },
      Depend.Serial "par-shape",
      ("DEP02-distance", carried, "carried edge has non-positive distance 0") );
    ( "carried distance of the trip count",
      edge { carried_edge with Depend.distance = Some 8 },
      Depend.Serial "par-shape",
      ("DEP02-distance", carried, "distance 8 exceeds the carrier's trip count 8 - 1") );
    ( "carrier direction not <",
      edge { carried_edge with Depend.directions = [ ("i", Depend.Any) ] },
      Depend.Serial "par-shape",
      ("DEP02-distance", carried, "carrier i direction is not [<]") );
    ( "unlisted reason",
      edge { carried_edge with Depend.exact = false; reason = Some "guess" },
      Depend.Serial "par-shape",
      ("DEP05-reason", carried, "inexact edge has uncatalogued reason \"guess\"") );
    ( "exact edge with a reason",
      edge { carried_edge with Depend.reason = Some "symbolic-bounds" },
      Depend.Serial "par-shape",
      ("DEP05-reason", carried, "exact edge carries a conservativeness reason") );
    ( "reduction with -",
      reduction ("s", Slp_ir.Types.Sub, [ 3 ]),
      Depend.Serial "par-shape",
      ("DEP03-reduction", "s (-)", "reduction reported with non-associative operator") );
    ( "reduction with a missing statement",
      reduction ("s", Slp_ir.Types.Add, [ 3; 9 ]),
      Depend.Serial "par-shape",
      ("DEP03-reduction", "s (+)", "update statement S9 is missing from the program") );
    ( "Parallel verdict with an edge carried on the partition loop",
      edge carried_edge,
      Depend.Parallel { reductions = [] },
      ( "DEP04-parallel",
        carried,
        "Parallel verdict but an edge is carried on the partition loop i" ) );
  ]

let test_dep_rules_fire () =
  let prog = Slp_frontend.Parser.parse ~name:"dep" dep_source in
  let graph = Depend.of_program prog in
  let verdict = Slp_vm.Parcheck.analyze (Slp_vm.Visa.of_program prog) in
  let show (d : D.t) = Printf.sprintf "%s | %s | %s" d.D.rule d.D.where d.D.message in
  Alcotest.(check (list string)) "the uncorrupted graph" []
    (List.map show (Dep_verify.check_graph ~verdict prog graph));
  Alcotest.(check bool) "the uncorrupted graph is the one described" true
    (graph.Depend.edges = [ li_edge; { li_edge with Depend.dst = 3 }; carried_edge ]
    && graph.Depend.reductions = [ ("s", Slp_ir.Types.Add, [ 3 ]) ]
    && (match verdict with Depend.Serial _ -> true | Depend.Parallel _ -> false));
  List.iter
    (fun (name, (edges, reductions), verdict, (rule, where, message)) ->
      let diags =
        Dep_verify.check_graph ~verdict prog { graph with Depend.edges; reductions }
      in
      if not (List.mem (rule ^ " | " ^ where ^ " | " ^ message) (List.map show diags)) then
        Alcotest.failf "%s: expected %s | %s | %s among [%s]" name rule where message
          (String.concat "; " (List.map show diags));
      List.iter
        (fun (d : D.t) ->
          if d.D.rule <> rule || not (D.is_error d) then
            Alcotest.failf "%s: unexpected %s" name (show d))
        diags)
    dep_corruptions

(* -- clean suite: real kernels never trip the checkers ------------------ *)

let machines = [ Machine.intel_dunnington; Machine.amd_phenom_ii ]

let clean_suite_case scheme () =
  List.iter
    (fun (k : Suite.t) ->
      let prog = Suite.program k in
      List.iter
        (fun (machine : Machine.t) ->
          let c = Pipeline.compile ~unroll:k.Suite.unroll ~scheme ~machine prog in
          match c.Pipeline.verify_report with
          | None -> Alcotest.failf "%s: verification did not run" k.Suite.name
          | Some r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s" k.Suite.name machine.Machine.name)
                true (Verify.is_clean r))
        machines)
    Suite.all

let test_verify_off () =
  let prog = Suite.program (List.hd Suite.all) in
  let c =
    Pipeline.compile ~verify:false ~scheme:Pipeline.Global
      ~machine:Machine.intel_dunnington prog
  in
  Alcotest.(check bool) "no report" true (c.Pipeline.verify_report = None);
  Alcotest.(check (float 1e-9)) "no verify time" 0.0 c.Pipeline.verify_seconds

(* -- report plumbing ---------------------------------------------------- *)

let test_raise_on_errors () =
  let err =
    D.error ~rule:"IR05-dup-id" ~stage:D.Prepared_ir ~where:"S1" "duplicate id"
  in
  let warn =
    D.warning ~rule:"IR09-live-in-scalar" ~stage:D.Prepared_ir ~where:"" "read only"
  in
  (match Verify.raise_if_errors ~what:"t" (Verify.of_diagnostics [ warn ]) with
  | () -> ()
  | exception Verify.Verification_failed _ -> Alcotest.fail "warnings must not raise");
  match Verify.raise_if_errors ~what:"t" (Verify.of_diagnostics [ warn; err ]) with
  | () -> Alcotest.fail "errors must raise"
  | exception Verify.Verification_failed (what, r) ->
      Alcotest.(check string) "program name" "t" what;
      Alcotest.(check int) "one error" 1 (List.length (Verify.errors r));
      Alcotest.(check int) "one warning" 1 (List.length (Verify.warnings r))

let test_report_rendering () =
  let err =
    D.error ~rule:"VISA03-selector" ~stage:D.Regalloc ~where:"vpermute v1, v0"
      "selector index %d out of range for %d lanes" 5 2
  in
  let s = Verify.report_to_string (Verify.of_diagnostics [ err ]) in
  List.iter
    (fun needle ->
      let lh = String.length s and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub s i ln = needle || go (i + 1)) in
      if not (go 0) then Alcotest.failf "rendered report %S lacks %S" s needle)
    [ "VISA03-selector"; "regalloc"; "vpermute v1, v0"; "error" ]

let () =
  Alcotest.run "verify"
    [
      ( "mutations",
        Alcotest.test_case "layer coverage" `Quick test_mutation_coverage
        :: List.map
             (fun c -> Alcotest.test_case c.Corrupt.name `Quick (mutation_case c))
             Corrupt.cases );
      ("dependence rules", [ Alcotest.test_case "every DEP rule fires" `Quick test_dep_rules_fire ]);
      ( "clean suite",
        List.map
          (fun s ->
            Alcotest.test_case (Pipeline.scheme_name s) `Quick (clean_suite_case s))
          Pipeline.all_schemes
        @ [ Alcotest.test_case "verify off" `Quick test_verify_off ] );
      ( "report",
        [
          Alcotest.test_case "raise on errors" `Quick test_raise_on_errors;
          Alcotest.test_case "rendering" `Quick test_report_rendering;
        ] );
    ]
