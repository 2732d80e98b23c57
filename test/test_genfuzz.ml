(* The generative kernel fuzzer (lib/fuzz) in the tier-1 suite: a
   bounded differential campaign, source<->IR structural round-trips,
   shrinker quality against a deliberately injected miscompile, and
   regression kernels the fuzzer has found. *)

open Slp_ir
module Gen = Slp_fuzz.Gen
module Oracle = Slp_fuzz.Oracle
module Shrink = Slp_fuzz.Shrink
module Harness = Slp_fuzz.Harness
module Pipeline = Slp_pipeline.Pipeline
module Prng = Slp_util.Prng

(* -- bounded campaign ---------------------------------------------- *)

let test_campaign () =
  let config =
    { Harness.default_config with Harness.seed = Seeded.seed; count = 300 }
  in
  let stats = Harness.run config in
  List.iter
    (fun r -> Format.eprintf "%a@." Harness.pp_report r)
    stats.Harness.reports;
  Alcotest.(check int) "cases run" 300 stats.Harness.cases;
  Alcotest.(check int)
    "no differential failures" 0
    (List.length stats.Harness.reports)

(* A record decides the model's ordering unless both of its minima are
   shared; a shared minimum on one side only still decides, by the
   first scheme in list order. *)
let test_agreement_ties () =
  let drift predicted measured = { Oracle.machine = "m"; predicted; measured } in
  let verdict =
    Alcotest.testable
      (fun ppf v ->
        Format.pp_print_string ppf
          (match v with
          | Some Harness.Agree -> "agree"
          | Some Harness.Tie -> "tie"
          | Some Harness.Disagree -> "disagree"
          | None -> "none"))
      ( = )
  in
  let check name expected predicted measured =
    Alcotest.check verdict name expected (Harness.agreement (drift predicted measured))
  in
  check "both minima shared" (Some Harness.Tie)
    [ ("a", 1.0); ("b", 1.0); ("c", 2.0) ]
    [ ("a", 5.0); ("b", 5.0); ("c", 9.0) ];
  check "both shared, different schemes" (Some Harness.Tie)
    [ ("a", 1.0); ("b", 1.0); ("c", 2.0) ]
    [ ("a", 9.0); ("b", 5.0); ("c", 5.0) ];
  check "one winner each, the same" (Some Harness.Agree)
    [ ("a", 2.0); ("b", 1.0) ]
    [ ("a", 9.0); ("b", 5.0) ];
  check "one winner each, different" (Some Harness.Disagree)
    [ ("a", 2.0); ("b", 1.0) ]
    [ ("a", 5.0); ("b", 9.0) ];
  check "predicted shared, measured decided" (Some Harness.Agree)
    [ ("a", 1.0); ("b", 1.0) ]
    [ ("a", 5.0); ("b", 9.0) ];
  check "a scheme measured only" None [ ("a", 1.0); ("b", 1.0) ] [ ("a", 5.0) ]

(* -- source <-> IR round-trips ------------------------------------- *)

(* Printing a generated kernel and re-parsing it must reproduce the
   same declarations and loop/block tree (names, bounds, statements);
   only block labels and statement ids are bookkeeping. *)
let test_structural_roundtrip () =
  let master = Seeded.prng ~salt:1 () in
  for k = 0 to 59 do
    let prng = Prng.split master in
    let p = Gen.program ~name:(Printf.sprintf "rt%d" k) prng in
    let src = Program.to_source p in
    match Slp_frontend.Parser.parse ~name:p.Program.name src with
    | exception Slp_frontend.Parser.Error (msg, l, c) ->
        Alcotest.failf "case %d: reparse failed at %d:%d: %s\n%s" k l c msg src
    | q ->
        if not (Program.equal_structure p q) then
          Alcotest.failf "case %d: structure differs after roundtrip\n%s" k src
  done

(* print/parse reaches a fixed point after one iteration: negated
   constants re-parse as negation nodes (the grammar has no negative
   literals), but from then on printing is byte-stable. *)
let test_print_fixed_point () =
  let master = Seeded.prng ~salt:2 () in
  for k = 0 to 19 do
    let prng = Prng.split master in
    let p = Gen.program ~name:(Printf.sprintf "fp%d" k) prng in
    let q =
      Slp_frontend.Parser.parse ~name:p.Program.name (Program.to_source p)
    in
    let src = Program.to_source q in
    let r = Slp_frontend.Parser.parse ~name:p.Program.name src in
    Alcotest.(check string)
      (Printf.sprintf "case %d print fixed point" k)
      src (Program.to_source r)
  done

(* -- shrinker quality ---------------------------------------------- *)

(* Injecting a miscompile (first vector op flipped) into an otherwise
   healthy kernel must shrink to a tiny reproducer: the acceptance bar
   is at most 5 statements. *)
let test_shrinker_on_injected_miscompile () =
  let fails q =
    Oracle.failed
      (Oracle.run ~mutate:Oracle.miscompile ~schemes:[ Pipeline.Global ] q)
  in
  let master = Seeded.prng ~salt:3 () in
  let rec find k =
    if k >= 50 then Alcotest.fail "no vectorized case in 50 draws"
    else
      let prng = Prng.split master in
      let p = Gen.program ~name:(Printf.sprintf "mc%d" k) prng in
      if fails p then p else find (k + 1)
  in
  let p = find 0 in
  let shrunk = Shrink.run ~max_checks:400 ~still_fails:fails p in
  Alcotest.(check bool) "shrunk program still fails" true (fails shrunk);
  let n = Program.stmt_count shrunk in
  if n > 5 then
    Alcotest.failf "shrunk to %d statements (> 5):\n%s" n
      (Program.to_source shrunk)

(* The shrinker never returns an invalid or non-reparseable program. *)
let test_shrinker_output_wellformed () =
  let fails q =
    Oracle.failed
      (Oracle.run ~mutate:Oracle.miscompile ~schemes:[ Pipeline.Slp ] q)
  in
  let master = Seeded.prng ~salt:4 () in
  let rec find k =
    if k >= 50 then None
    else
      let prng = Prng.split master in
      let p = Gen.program ~name:(Printf.sprintf "wf%d" k) prng in
      if fails p then Some p else find (k + 1)
  in
  match find 0 with
  | None -> () (* SLP scheme found nothing to vectorize; campaign covers it *)
  | Some p ->
      let shrunk = Shrink.run ~max_checks:300 ~still_fails:fails p in
      (match Program.validate shrunk with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "shrunk program invalid: %s" msg);
      let src = Program.to_source shrunk in
      let q = Slp_frontend.Parser.parse ~name:"wf" src in
      Alcotest.(check bool)
        "reparsed shrunk program equals original" true
        (Program.equal_structure shrunk q)

(* -- regressions the fuzzer found ---------------------------------- *)

(* Found by `slpfuzz --seed 42 --index 45` and shrunk automatically.
   Larsen's combination phase merged two unrolled pack copies whose
   members carry a WAW dependence (both write A[i0+3] across copies):
   pack-contraction acyclicity cannot see intra-pack edges, so the
   merge survived until Schedule.is_valid rejected the schedule and
   plan_block raised.  The phase now requires pairwise independence
   between the packs being merged. *)
let larsen_waw_merge_src =
  "f32 A[256];\n" ^ "f32 B[256];\n" ^ "f32 C[256];\n"
  ^ "for i0 = 0 to 2 step 1 {\n"
  ^ "  A[i0+2] = ((C[i0+25] - B[i0+3]) * (B[2*i0+178] + -1));\n"
  ^ "  A[i0+3] = ((C[i0+26] - B[i0+4]) * (B[2*i0+179] + A[i0+152]));\n" ^ "}\n"

(* Found by `slpfuzz --seed 42 --index 8656` and shrunk automatically.
   Larsen's combination phase also never compared shapes across the
   two packs being merged: a constant-store pair and a negation pair
   over address-consecutive elements combined into one superword whose
   members are not isomorphic (verifier rule PACK01).  The phase now
   requires every merged member to stay isomorphic to the first
   lane. *)
let larsen_noniso_merge_src =
  "f32 A[256];\n" ^ "f32 C[256];\n"
  ^ "for i0 = 2 to 4 step 1 {\n" ^ "  C[i0+5] = -1.375;\n"
  ^ "  C[i0+7] = (-A[i0+2]);\n" ^ "}\n"

(* Found by `slpfuzz --seed 42 --index 4735` and shrunk automatically.
   The native vectorizer grows packs one lane at a time but contracted
   only the seam pair when checking acyclicity — the partial run's own
   pairs are not in [decided] yet, so a dependence cycle through a
   middle lane (here via the B-store pack reading what the C-store
   pack writes, and vice versa across unrolled copies) survived until
   Larsen.schedule raised. *)
let native_cyclic_pack_src =
  "f32 B[256];\n" ^ "f32 C[256];\n"
  ^ "for i0 = 1 to 3 step 1 {\n" ^ "  B[i0+2] = C[i0+4];\n"
  ^ "  C[i0+3] = C[i0+25];\n" ^ "  C[i0+4] = C[i0+26];\n"
  ^ "  C[i0+5] = C[i0+27];\n" ^ "}\n"

let check_regression name src () =
  let p = Slp_frontend.Parser.parse ~name src in
  let outcome = Oracle.run p in
  List.iter
    (fun f -> Format.eprintf "%a@." Oracle.pp_failure f)
    outcome.Oracle.failures;
  Alcotest.(check int)
    "oracle clean on all schemes and machines" 0
    (List.length outcome.Oracle.failures)

let test_larsen_waw_merge_regression =
  check_regression "larsen_waw_merge" larsen_waw_merge_src

(* -- campaign replay ----------------------------------------------- *)

(* case_program must reproduce campaign cases from (seed, index) alone. *)
let test_case_replay () =
  let config = { Harness.default_config with Harness.seed = 7; count = 5 } in
  let seen = ref [] in
  let (_ : Harness.stats) =
    Harness.run ~on_case:(fun i p -> seen := (i, p) :: !seen) config
  in
  List.iter
    (fun (i, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d replays" i)
        true
        (Program.equal_structure p (Harness.case_program config i)))
    !seen

let () =
  Alcotest.run "genfuzz"
    [
      ( "campaign",
        [
          Alcotest.test_case "300-case differential campaign" `Quick test_campaign;
          Alcotest.test_case "case replay from (seed, index)" `Quick
            test_case_replay;
          Alcotest.test_case "cost-model ties counted apart" `Quick test_agreement_ties;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "source<->IR structural roundtrip" `Quick
            test_structural_roundtrip;
          Alcotest.test_case "printer is a fixed point" `Quick
            test_print_fixed_point;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "injected miscompile shrinks to <= 5 stmts" `Quick
            test_shrinker_on_injected_miscompile;
          Alcotest.test_case "shrunk output is valid and reparseable" `Quick
            test_shrinker_output_wellformed;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "larsen combination-phase WAW merge" `Quick
            test_larsen_waw_merge_regression;
          Alcotest.test_case "larsen combination-phase non-isomorphic merge"
            `Quick
            (check_regression "larsen_noniso_merge" larsen_noniso_merge_src);
          Alcotest.test_case "native partial-pack dependence cycle" `Quick
            (check_regression "native_cyclic_pack" native_cyclic_pack_src);
        ] );
    ]
