(* Tests for the exact integer dependence analyzer: the per-dimension
   equation solver (ZIV/GCD/Banerjee within constant boxes), the
   precise block dependence pairs, the cross-instance chunk
   independence test, the distance/direction dependence graph with its
   JSON dump (Figure 15 golden), the dynamic soundness tracer, and a
   brute-force qcheck property for the same-instance solver. *)

open Slp_ir
module Depend = Slp_depend.Depend
module Dtrace = Slp_depend.Dtrace
module Suite = Slp_benchmarks.Suite

let parse = Slp_frontend.Parser.parse

let box_i ?(lo = 0) ?(hi = 8) ?(step = 1) () =
  Depend.Box.add Depend.Box.empty "i"
    (Depend.Box.of_bounds ~lo:(Affine.const lo) ~hi:(Affine.const hi) ~step)

let solvable = function Depend.Solvable _ -> true | Depend.Unsolvable -> false

(* -- the per-dimension solver ---------------------------------------- *)

let test_solver_ziv () =
  let box = Depend.Box.empty in
  Alcotest.(check bool) "5 = 5" true
    (solvable (Depend.same_instance_eqn ~box (Affine.const 5) (Affine.const 5)));
  Alcotest.(check bool) "5 <> 7" false
    (solvable (Depend.same_instance_eqn ~box (Affine.const 5) (Affine.const 7)))

let test_solver_gcd () =
  let box = box_i () in
  (* 2i = 2i + 1 has no integer solution: gcd test. *)
  Alcotest.(check bool) "2i <> 2i+1" false
    (solvable
       (Depend.same_instance_eqn ~box
          (Affine.make [ ("i", 2) ] 0)
          (Affine.make [ ("i", 2) ] 1)));
  Alcotest.(check bool) "2i = 2i+4 - 4" true
    (solvable
       (Depend.same_instance_eqn ~box
          (Affine.make [ ("i", 2) ] 4)
          (Affine.make [ ("i", 2) ] 4)))

let test_solver_banerjee () =
  let box = box_i ~lo:0 ~hi:8 () in
  (* i = i + 20 is excluded by the bounds (i - i = 0 always, but the
     constant 20 is outside the achievable [0, 0]).  Use distinct
     variables via two dims: f = i, g = 100 (i in [0,8)). *)
  Alcotest.(check bool) "i <> 100 inside [0,8)" false
    (solvable
       (Depend.same_instance_eqn ~box (Affine.var "i") (Affine.const 100)));
  Alcotest.(check bool) "i = 5 inside [0,8)" true
    (solvable
       (Depend.same_instance_eqn ~box (Affine.var "i") (Affine.const 5)))

let test_solver_symbolic () =
  (* Unknown range: conservative Solvable with a stable reason. *)
  let box = Depend.Box.add Depend.Box.empty "i" Depend.Box.Unknown in
  match Depend.same_instance_eqn ~box (Affine.var "i") (Affine.const 100) with
  | Depend.Solvable { exact = false; reason = Some "symbolic-bounds" } -> ()
  | Depend.Solvable { exact; reason } ->
      Alcotest.failf "expected conservative verdict, got exact=%b reason=%s"
        exact
        (Option.value ~default:"<none>" reason)
  | Depend.Unsolvable -> Alcotest.fail "symbolic bounds must not prove independence"

(* -- precise block pairs vs the syntactic ones ----------------------- *)

let test_block_pairs_strided_disjoint () =
  (* A[2i] = A[i+9] only at i = 9, outside the box [0,8): the Banerjee
     bound drops the edge the syntactic may-alias test keeps (their
     difference i - 9 is not a constant, so it must assume aliasing). *)
  let block =
    Block.of_rhs ~label:"bb"
      [
        (Operand.Elem ("A", [ Affine.make [ ("i", 2) ] 0 ]), Expr.Infix.(cst 1.0));
        (Operand.Elem ("A", [ Affine.make [ ("i", 1) ] 9 ]), Expr.Infix.(cst 2.0));
      ]
  in
  let box = box_i () in
  Alcotest.(check bool) "syntactic pairs see a conflict" true
    (Block.dep_pairs block <> []);
  Alcotest.(check (list (pair int int))) "precise pairs are empty" []
    (Depend.block_dep_pairs ~box block)

let test_block_pairs_keep_real_deps () =
  let block =
    Block.of_rhs ~label:"bb"
      [
        (Operand.Elem ("A", [ Affine.var "i" ]), Expr.Infix.(cst 1.0));
        (Operand.Scalar "x", Expr.Infix.(arr "A" [ Affine.var "i" ] + cst 0.0));
      ]
  in
  let box = box_i () in
  Alcotest.(check (list (pair int int))) "flow dep survives" [ (1, 2) ]
    (Depend.block_dep_pairs ~box block)

(* -- cross-instance chunk independence ------------------------------- *)

let access ~stmt ~base ~idxs ~write box =
  { Depend.stmt; base; idxs; write; box }

let test_cross_instance () =
  let box = box_i () in
  let w = access ~stmt:1 ~base:"A" ~idxs:[ Affine.var "i" ] ~write:true box in
  let r_same = access ~stmt:2 ~base:"A" ~idxs:[ Affine.var "i" ] ~write:false box in
  let r_next =
    access ~stmt:2 ~base:"A" ~idxs:[ Affine.make [ ("i", 1) ] 1 ] ~write:false box
  in
  Alcotest.(check bool) "A[i] vs A[i]: same iteration only" false
    (Depend.cross_instance_conflict ~pvar:"i" w r_same);
  Alcotest.(check bool) "A[i] write vs A[i+1] read crosses iterations" true
    (Depend.cross_instance_conflict ~pvar:"i" w r_next)

(* -- the dependence graph -------------------------------------------- *)

let test_graph_distance_direction () =
  let prog =
    parse ~name:"carried" "f64 A[64];\nfor i = 0 to 8 {\n  A[i+1] = A[i];\n}"
  in
  let g = Depend.of_program prog in
  let carried =
    List.filter (fun (e : Depend.edge) -> e.Depend.carrier <> None) g.Depend.edges
  in
  match
    List.find_opt
      (fun (e : Depend.edge) -> e.Depend.ekind = Depend.Flow)
      carried
  with
  | None -> Alcotest.fail "expected a carried flow edge"
  | Some e ->
      Alcotest.(check (option string)) "carried on i" (Some "i") e.Depend.carrier;
      Alcotest.(check (option int)) "distance 1" (Some 1) e.Depend.distance;
      Alcotest.(check bool) "exact" true e.Depend.exact;
      Alcotest.(check string) "direction <" "<"
        (Depend.direction_string (List.assoc "i" e.Depend.directions))

let test_graph_strided_distance () =
  (* step 3 loop: A[i] = A[i-6] is 2 iterations apart, not 6. *)
  let prog =
    parse ~name:"stride"
      "f64 A[128];\nfor i = 6 to 48 step 3 {\n  A[i] = A[i-6];\n}"
  in
  let g = Depend.of_program prog in
  match
    List.find_opt
      (fun (e : Depend.edge) ->
        e.Depend.ekind = Depend.Flow && e.Depend.carrier = Some "i")
      g.Depend.edges
  with
  | None -> Alcotest.fail "expected a carried flow edge"
  | Some e ->
      Alcotest.(check (option int)) "distance in iterations" (Some 2)
        e.Depend.distance

let fig15_source =
  "f64 a;\nf64 b;\nf64 c;\nf64 d;\nf64 g;\nf64 h;\nf64 q;\nf64 r;\n\
   f64 A[1024];\nf64 B[4096];\n\n\
   for i = 2 to 6 {\n\
  \  a = A[i];\n\
  \  c = a * B[4*i];\n\
  \  g = q * B[4*i-2];\n\
  \  b = A[i+1];\n\
  \  d = b * B[4*i+4];\n\
  \  h = r * B[4*i+2];\n\
  \  A[2*i] = d + a*c;\n\
  \  A[2*i+2] = g + r*h;\n\
   }\n"

let fig15_golden =
  "{\"program\":\"fig15\",\"edges\":[{\"src\":7,\"dst\":1,\"array\":\"A\",\
   \"kind\":\"flow\",\"carrier\":\"i\",\"distance\":null,\"directions\":\
   [{\"loop\":\"i\",\"dir\":\"<\"}],\"exact\":false,\"reason\":\
   \"banerjee-inconclusive\"},{\"src\":7,\"dst\":4,\"array\":\"A\",\"kind\":\
   \"flow\",\"carrier\":\"i\",\"distance\":null,\"directions\":[{\"loop\":\
   \"i\",\"dir\":\"<\"}],\"exact\":false,\"reason\":\"banerjee-inconclusive\"},\
   {\"src\":8,\"dst\":4,\"array\":\"A\",\"kind\":\"flow\",\"carrier\":\"i\",\
   \"distance\":null,\"directions\":[{\"loop\":\"i\",\"dir\":\"<\"}],\"exact\":\
   false,\"reason\":\"banerjee-inconclusive\"},{\"src\":8,\"dst\":7,\"array\":\
   \"A\",\"kind\":\"output\",\"carrier\":\"i\",\"distance\":1,\"directions\":\
   [{\"loop\":\"i\",\"dir\":\"<\"}],\"exact\":true,\"reason\":null}],\
   \"reductions\":[]}"

let test_fig15_deps_golden () =
  let prog = parse ~name:"fig15" fig15_source in
  let json = Slp_obs.Json.to_string (Depend.to_json (Depend.of_program prog)) in
  Alcotest.(check string) "fig15 dependence graph JSON" fig15_golden json

(* The whole dependence graph pinned: one FNV hash over the JSON of
   [Depend.of_program], for the 16 suite kernels' prepared programs on
   the Intel model at 128, 256 and 512 bits (unroll scaled with the
   width, kernel unroll x bits / 128), and for 100 generated kernels
   (seeds 7000-7099) prepared at unroll 2.  Edges, kinds, carriers,
   distances, directions, exactness and reasons all reach the hash, so
   a change to how the solver is driven must leave every graph as it
   was.  Re-record only in a change meant to alter dependence graphs,
   with old and new values in CHANGES.md. *)
let graph_hash programs =
  Slp_util.Fnv.to_hex
    (List.fold_left
       (fun h p ->
         Slp_util.Fnv.combine h
           (Slp_obs.Json.to_string (Depend.to_json (Depend.of_program p))))
       (Slp_util.Fnv.hash64 "") programs)

let prepared ~unroll prog =
  Slp_transform.Simplify.fold_program prog |> Slp_transform.Unroll.program ~factor:unroll

let test_graphs_pinned () =
  let suite =
    List.concat_map
      (fun bits ->
        List.map
          (fun (b : Suite.t) ->
            prepared ~unroll:(max 1 (b.Suite.unroll * bits / 128)) (Suite.program b))
          Suite.all)
      [ 128; 256; 512 ]
  in
  let generated =
    List.init 100 (fun i ->
        let seed = 7000 + i in
        prepared ~unroll:2
          (Slp_fuzz.Gen.program ~name:(Printf.sprintf "pin%d" seed)
             (Slp_util.Prng.create seed)))
  in
  Alcotest.(check string) "suite graphs" "b33631d5c0027b01" (graph_hash suite);
  Alcotest.(check string) "generated graphs" "4a380a2998ccdc6e" (graph_hash generated)

(* -- dynamic soundness tracer ---------------------------------------- *)

(* The verdict the engine acts on. *)
let verdict_of prog = Slp_vm.Parcheck.analyze (Slp_vm.Visa.of_program prog)

let test_dtrace_clean_kernels () =
  List.iter
    (fun name ->
      let prog = Suite.program (Suite.find name) in
      let r = Dtrace.check ~verdict:(verdict_of prog) prog in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: no violations" name)
        [] r.Dtrace.violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s: events recorded" name)
        true (r.Dtrace.events > 0))
    [ "cg"; "mg"; "soplex" ]

let test_dtrace_reduction_kernel () =
  let prog =
    parse ~name:"red"
      "f64 s;\nf64 A[64];\nfor i = 0 to 64 {\n  s = s + A[i];\n}"
  in
  let r = Dtrace.check ~verdict:(verdict_of prog) prog in
  Alcotest.(check (list string)) "reduction traces clean" [] r.Dtrace.violations;
  (* The replay checks the verdict it is given: without the reduction,
     [s] is read before any write in every partition. *)
  let wrong = Dtrace.check ~verdict:(Depend.Parallel { reductions = [] }) prog in
  Alcotest.(check int) "a verdict missing the reduction is caught" 64
    (List.length wrong.Dtrace.violations)

(* -- brute force vs the same-instance solver ------------------------- *)

let enumerate_box vars ranges f =
  (* Call [f] with every assignment of [vars] inside [ranges]. *)
  let rec go acc = function
    | [] -> f (fun v -> List.assoc v acc)
    | (v, (lo, hi, step)) :: rest ->
        let x = ref lo in
        while !x < hi do
          go ((v, !x) :: acc) rest;
          x := !x + step
        done
  in
  go [] (List.combine vars ranges)

let false_dependent = ref 0
let total_dependent_verdicts = ref 0

let arb_subscript_pair =
  let open QCheck.Gen in
  let coeff = int_range (-3) 3 in
  let konst = int_range (-8) 8 in
  let affine =
    map3
      (fun ci cj k -> Affine.add (Affine.make [ ("i", ci) ] k) (Affine.make [ ("j", cj) ] 0))
      coeff coeff konst
  in
  let range = map2 (fun lo len -> (lo, lo + 1 + len, 1)) (int_range 0 2) (int_range 0 6) in
  let gen = tup2 (tup2 affine affine) (tup2 range range) in
  QCheck.make
    ~print:(fun ((f, g), (ri, rj)) ->
      let pr (lo, hi, step) = Printf.sprintf "[%d,%d) step %d" lo hi step in
      Printf.sprintf "f=%s g=%s i:%s j:%s" (Affine.to_string f)
        (Affine.to_string g) (pr ri) (pr rj))
    gen

let prop_solver_sound =
  QCheck.Test.make ~name:"same-instance solver never misses a dependence"
    ~count:500 arb_subscript_pair
    (fun ((f, g), ((ilo, ihi, istep), (jlo, jhi, jstep))) ->
      let box =
        Depend.Box.add
          (Depend.Box.add Depend.Box.empty "j"
             (Depend.Box.of_bounds ~lo:(Affine.const jlo)
                ~hi:(Affine.const jhi) ~step:jstep))
          "i"
          (Depend.Box.of_bounds ~lo:(Affine.const ilo) ~hi:(Affine.const ihi)
             ~step:istep)
      in
      let found = ref false in
      enumerate_box [ "i"; "j" ]
        [ (ilo, ihi, istep); (jlo, jhi, jstep) ]
        (fun env -> if Affine.eval f env = Affine.eval g env then found := true);
      let verdict = Depend.same_instance_eqn ~box f g in
      (match verdict with
      | Depend.Solvable _ ->
          incr total_dependent_verdicts;
          if not !found then incr false_dependent
      | Depend.Unsolvable -> ());
      (* Soundness: a witnessed coincidence must be declared solvable. *)
      (not !found) || solvable verdict)

let test_false_dependent_rate () =
  (* Runs after the property; purely informational. *)
  if !total_dependent_verdicts > 0 then
    Printf.eprintf "[depend] false-dependent rate: %d/%d (%.1f%%)\n%!"
      !false_dependent !total_dependent_verdicts
      (100.0 *. float_of_int !false_dependent
      /. float_of_int !total_dependent_verdicts)

let () =
  Alcotest.run "depend"
    [
      ( "solver",
        [
          Alcotest.test_case "ziv" `Quick test_solver_ziv;
          Alcotest.test_case "gcd" `Quick test_solver_gcd;
          Alcotest.test_case "banerjee bounds" `Quick test_solver_banerjee;
          Alcotest.test_case "symbolic fallback" `Quick test_solver_symbolic;
        ] );
      ( "block pairs",
        [
          Alcotest.test_case "strided disjoint" `Quick
            test_block_pairs_strided_disjoint;
          Alcotest.test_case "real deps survive" `Quick
            test_block_pairs_keep_real_deps;
        ] );
      ( "cross instance",
        [ Alcotest.test_case "chunk independence" `Quick test_cross_instance ] );
      ( "graph",
        [
          Alcotest.test_case "distance/direction" `Quick
            test_graph_distance_direction;
          Alcotest.test_case "strided distance" `Quick
            test_graph_strided_distance;
          Alcotest.test_case "fig15 JSON golden" `Quick test_fig15_deps_golden;
          Alcotest.test_case "every graph pinned" `Quick test_graphs_pinned;
        ] );
      ( "dtrace",
        [
          Alcotest.test_case "suite kernels clean" `Quick
            test_dtrace_clean_kernels;
          Alcotest.test_case "reduction kernel clean" `Quick
            test_dtrace_reduction_kernel;
        ] );
      ( "property",
        Seeded.to_alcotest prop_solver_sound
        :: [
             Alcotest.test_case "false-dependent rate" `Quick
               test_false_dependent_rate;
           ] );
    ]
