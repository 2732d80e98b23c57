(* Tests for the exact integer dependence analyzer: the per-dimension
   equation solver (ZIV/GCD/Banerjee within constant boxes), the
   precise block dependence pairs, the cross-instance chunk
   independence test, the distance/direction dependence graph with its
   JSON dump (Figure 15 golden), the dynamic soundness tracer, a
   brute-force qcheck property for the same-instance solver, and the
   library against [Depend_reference], the analysis as it stood before
   its block-scale access tables. *)

open Slp_ir
module Depend = Slp_depend.Depend
module Dtrace = Slp_depend.Dtrace
module Suite = Slp_benchmarks.Suite
module Ref = Depend_reference

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

let suite_prepared =
  lazy
    (List.concat_map
       (fun bits ->
         List.map
           (fun (b : Suite.t) ->
             prepared ~unroll:(max 1 (b.Suite.unroll * bits / 128)) (Suite.program b))
           Suite.all)
       [ 128; 256; 512 ])

let generated_prepared =
  lazy
    (List.init 100 (fun i ->
         let seed = 7000 + i in
         prepared ~unroll:2
           (Slp_fuzz.Gen.program ~name:(Printf.sprintf "pin%d" seed)
              (Slp_util.Prng.create seed))))

let test_graphs_pinned () =
  Alcotest.(check string) "suite graphs" "b33631d5c0027b01"
    (graph_hash (Lazy.force suite_prepared));
  Alcotest.(check string) "generated graphs" "4a380a2998ccdc6e"
    (graph_hash (Lazy.force generated_prepared))

(* Every block's precise statement pairs pinned over the same programs:
   one FNV hash over [Depend.block_dep_pairs] of every block, in
   [Depend.blocks_with_box] order.  Plans see the pairs only where a
   pair changes a grouping; this sees every pair.  Re-record only in a
   change meant to alter dependence pairs, with old and new values in
   CHANGES.md. *)
let pairs_hash programs =
  Slp_util.Fnv.to_hex
    (List.fold_left
       (fun h p ->
         List.fold_left
           (fun h ((block : Block.t), box) ->
             Slp_util.Fnv.combine h
               (String.concat " "
                  (block.Block.label
                  :: List.map
                       (fun (a, b) -> Printf.sprintf "%d>%d" a b)
                       (Depend.block_dep_pairs ~box block))))
           h (Depend.blocks_with_box p))
       (Slp_util.Fnv.hash64 "") programs)

let test_pairs_pinned () =
  Alcotest.(check string) "suite pairs" "8aff60e307a8c942"
    (pairs_hash (Lazy.force suite_prepared));
  Alcotest.(check string) "generated pairs" "f9012e4ac910a75e"
    (pairs_hash (Lazy.force generated_prepared))

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

(* -- the library against the reference ------------------------------ *)

(* Kernel sources for the equivalence property, drawn to reach shapes
   the suite and [Slp_fuzz.Gen] leave out: triangular (symbolic) bounds,
   zero- and one-trip loops, steps above 1, negative coefficients,
   sibling loops reusing an index over different ranges, and subscripts
   sharing one linear part with different constants (the uniformly
   generated pairs unrolling makes).  Subscripts need not stay inside
   their arrays: the analysis never executes them. *)
let gen_kernel_source : string QCheck.Gen.t =
 fun st ->
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let chance k = Random.State.int st k = 0 in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "f64 A[512];\nf64 B[512];\nf64 M[16][64];\nf64 s;\nf64 x;\nf64 y;\n";
  let affine k terms =
    List.fold_left
      (fun acc (v, c) ->
        if c = 0 then acc
        else if c > 0 then Printf.sprintf "%s + %d*%s" acc c v
        else Printf.sprintf "%s - %d*%s" acc (-c) v)
      (string_of_int k) terms
  in
  let linear vars =
    List.map (fun v -> (v, pick [ 0; 0; 1; 1; 1; 2; -1; 3; -2; 4 ])) vars
  in
  let block ~indent vars =
    (* One linear part per array for the block; most subscripts reuse it. *)
    let shared = List.map (fun a -> (a, (linear vars, linear vars))) [ "A"; "B"; "M" ] in
    let elem () =
      let a = pick [ "A"; "A"; "B"; "M" ] in
      let l1, l2 = List.assoc a shared in
      let sub l = affine (int (-4) 4) (if chance 4 then linear vars else l) in
      if a = "M" then Printf.sprintf "M[%s][%s]" (sub l1) (sub l2)
      else Printf.sprintf "%s[%s]" a (sub l1)
    in
    for _ = 1 to int 1 3 do
      let lhs = if chance 4 then pick [ "s"; "x"; "y" ] else elem () in
      let leaf () =
        match Random.State.int st 4 with
        | 0 | 1 -> elem ()
        | 2 -> pick [ "s"; "x"; "y" ]
        | _ -> "1.5"
      in
      let rhs =
        if lhs = "s" && chance 2 then "s + " ^ leaf ()
        else
          String.concat (pick [ " + "; " * "; " - " ]) (List.init (int 1 3) (fun _ -> leaf ()))
      in
      Printf.bprintf buf "%s%s = %s;\n" indent lhs rhs
    done
  in
  let rec items ~indent ~depth vars =
    for _ = 1 to int 1 3 do
      let free = List.filter (fun v -> not (List.mem v vars)) [ "i"; "j"; "k" ] in
      if depth < 3 && free <> [] && not (chance 3) then begin
        let v = pick free in
        let lo, hi =
          match vars with
          | outer :: _ when chance 3 ->
              (* triangular: one bound follows an enclosing index *)
              if chance 2 then (Printf.sprintf "%s + %d" outer (int 0 1), string_of_int (int 4 9))
              else (string_of_int (int 0 2), Printf.sprintf "%s + %d" outer (int 0 3))
          | _ ->
              let lo = int 0 3 in
              (string_of_int lo, string_of_int (lo + pick [ 0; 1; 2; 3; 5; 8; 9; 16 ]))
        in
        let step = pick [ 1; 1; 1; 2; 3 ] in
        Printf.bprintf buf "%sfor %s = %s to %s step %d {\n" indent v lo hi step;
        items ~indent:(indent ^ "  ") ~depth:(depth + 1) (vars @ [ v ]);
        Printf.bprintf buf "%s}\n" indent
      end
      else block ~indent vars
    done
  in
  let lo = int 0 3 in
  Printf.bprintf buf "for t = %d to %d step %d {\n" lo
    (lo + pick [ 0; 1; 2; 4; 6; 9 ])
    (pick [ 1; 1; 2; 3 ]);
  items ~indent:"  " ~depth:1 [ "t" ];
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Every array access under an outermost loop with the loops around it
   (outermost first), each statement's write before its reads. *)
let loop_accesses (l : Program.loop) =
  let rec go loops items =
    List.concat_map
      (function
        | Program.Stmts b ->
            List.concat_map
              (fun (s : Stmt.t) ->
                List.filter_map
                  (fun (op, write) ->
                    match op with
                    | Operand.Elem (base, idxs) -> Some (s.Stmt.id, base, idxs, write, loops)
                    | Operand.Const _ | Operand.Scalar _ -> None)
                  ((s.Stmt.lhs, true)
                  :: List.map (fun o -> (o, false)) (Expr.leaves s.Stmt.rhs)))
              b.Block.stmts
        | Program.Loop inner -> go (loops @ [ inner ]) inner.Program.body)
      items
  in
  go [ l ] l.Program.body

let lib_access (stmt, base, idxs, write, loops) =
  let box =
    List.fold_left
      (fun box (l : Program.loop) ->
        Depend.Box.add box l.Program.index
          (Depend.Box.of_bounds ~lo:l.Program.lo ~hi:l.Program.hi ~step:l.Program.step))
      Depend.Box.empty loops
  in
  { Depend.stmt; base; idxs; write; box }

let ref_access (stmt, base, idxs, write, loops) =
  let box =
    List.fold_left
      (fun box (l : Program.loop) ->
        Ref.Box.add box l.Program.index
          (Ref.Box.of_bounds ~lo:l.Program.lo ~hi:l.Program.hi ~step:l.Program.step))
      Ref.Box.empty loops
  in
  { Ref.stmt; base; idxs; write; box }

(* The first difference between the library and the reference on a
   prepared program, if any: the whole graph (every edge field, in
   order, and the reductions), the pairs of every block, and the
   chunk-conflict verdict of every access pair of each outermost loop. *)
let reference_difference prog =
  let json g = Slp_obs.Json.to_string g in
  let lib_graph = json (Depend.to_json (Depend.of_program prog))
  and ref_graph = json (Ref.to_json (Ref.of_program prog)) in
  if lib_graph <> ref_graph then
    Some (Printf.sprintf "graph\n  library:   %s\n  reference: %s" lib_graph ref_graph)
  else
    let pairs =
      List.find_map
        (fun (((block : Block.t), box), (_, rbox)) ->
          let lib = Depend.block_dep_pairs ~box block
          and rf = Ref.block_dep_pairs ~box:rbox block in
          let show ps =
            String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) ps)
          in
          if lib = rf then None
          else
            Some
              (Printf.sprintf "pairs of %s\n  library:   %s\n  reference: %s"
                 block.Block.label (show lib) (show rf)))
        (List.combine (Depend.blocks_with_box prog) (Ref.blocks_with_box prog))
    in
    if pairs <> None then pairs
    else
      List.find_map
        (function
          | Program.Stmts _ -> None
          | Program.Loop l ->
              let raw = Array.of_list (loop_accesses l) in
              let lib = Array.map lib_access raw and rf = Array.map ref_access raw in
              let pvar = l.Program.index in
              let found = ref None in
              Array.iteri
                (fun i a ->
                  for j = i to Array.length raw - 1 do
                    if !found = None then
                      let got = Depend.cross_instance_conflict ~pvar a lib.(j)
                      and want = Ref.cross_instance_conflict ~pvar rf.(i) rf.(j) in
                      if got <> want then
                        found :=
                          Some
                            (Printf.sprintf
                               "cross_instance_conflict on %s, accesses %d and %d: \
                                library %b, reference %b"
                               pvar i j got want)
                  done)
                lib;
              !found)
        prog.Program.body

(* A subscript variable that no loop of the box binds (a hand-built box
   can have one) ranges symbolically, on both sides of a same-instance
   equation and per side of a cross-instance one, as in the reference. *)
let test_unbound_variables () =
  let loops = [ ("i", 0, 8, 1); ("j", 2, 20, 3) ] in
  let lib_box names =
    List.fold_left
      (fun box (v, lo, hi, step) ->
        if List.mem v names then
          Depend.Box.add box v
            (Depend.Box.of_bounds ~lo:(Affine.const lo) ~hi:(Affine.const hi) ~step)
        else box)
      Depend.Box.empty loops
  and ref_box names =
    List.fold_left
      (fun box (v, lo, hi, step) ->
        if List.mem v names then
          Ref.Box.add box v
            (Ref.Box.of_bounds ~lo:(Affine.const lo) ~hi:(Affine.const hi) ~step)
        else box)
      Ref.Box.empty loops
  in
  let show_sol = function
    | `Unsolvable -> "unsolvable"
    | `Solvable (exact, reason) ->
        Printf.sprintf "exact=%b reason=%s" exact (Option.value reason ~default:"-")
  in
  let lib_sol = function
    | Depend.Unsolvable -> `Unsolvable
    | Depend.Solvable { exact; reason } -> `Solvable (exact, reason)
  and ref_sol = function
    | Ref.Unsolvable -> `Unsolvable
    | Ref.Solvable { exact; reason } -> `Solvable (exact, reason)
  in
  let ij = Affine.make [ ("i", 1); ("j", 2) ] 1 and jk = Affine.make [ ("j", 2); ("k", -1) ] 4 in
  List.iter
    (fun (names, f, g) ->
      Alcotest.(check string)
        (Printf.sprintf "%s vs %s over [%s]" (Affine.to_string f) (Affine.to_string g)
           (String.concat ";" names))
        (show_sol (ref_sol (Ref.same_instance_eqn ~box:(ref_box names) f g)))
        (show_sol (lib_sol (Depend.same_instance_eqn ~box:(lib_box names) f g))))
    [
      ([], Affine.var "i", Affine.const 100);
      ([ "i" ], ij, Affine.const 3);
      ([ "j" ], ij, jk);
      ([ "i"; "j" ], jk, Affine.make [ ("k", -1) ] 6);
    ];
  List.iter
    (fun (pvar, (an, af, aw), (bn, bf, bw)) ->
      Alcotest.(check bool)
        (Printf.sprintf "conflict on %s: %s [%s] vs %s [%s]" pvar (Affine.to_string af)
           (String.concat ";" an) (Affine.to_string bf) (String.concat ";" bn))
        (Ref.cross_instance_conflict ~pvar
           { Ref.stmt = 1; base = "A"; idxs = [ af ]; write = aw; box = ref_box an }
           { Ref.stmt = 2; base = "A"; idxs = [ bf ]; write = bw; box = ref_box bn })
        (Depend.cross_instance_conflict ~pvar
           { Depend.stmt = 1; base = "A"; idxs = [ af ]; write = aw; box = lib_box an }
           { Depend.stmt = 2; base = "A"; idxs = [ bf ]; write = bw; box = lib_box bn }))
    [
      ("i", ([ "i" ], ij, true), ([ "i"; "j" ], ij, false));
      ("i", ([ "i"; "j" ], Affine.make [ ("i", 2) ] 0, true), ([ "i" ], jk, false));
      ("k", ([ "i" ], jk, true), ([ "j" ], Affine.make [ ("k", 1) ] 0, true));
      ("j", ([], Affine.make [ ("j", 4) ] 1, true), ([ "j" ], Affine.make [ ("j", 4) ] 3, false));
    ];
  let block =
    Block.of_rhs ~label:"bb"
      [
        (Operand.Elem ("A", [ ij ]), Expr.Infix.(cst 1.0));
        (Operand.Scalar "x", Expr.Infix.(arr "A" [ jk ] + cst 0.0));
        (Operand.Elem ("A", [ Affine.make [ ("i", 2) ] 40 ]), Expr.Infix.(cst 2.0));
      ]
  in
  Alcotest.(check (list (pair int int)))
    "pairs of a block over i alone"
    (Ref.block_dep_pairs ~box:(ref_box [ "i" ]) block)
    (Depend.block_dep_pairs ~box:(lib_box [ "i" ]) block)

(* The analysis allocates its tables and what it reports, never per
   solve.  Over the suite's prepared programs at 512 bits (4,362 pairs
   that can conflict, each solved 2 x depth + 1 times) [of_program]
   stays under 40 minor words per such pair (28 now; 755 when every
   solve built its equations as lists), and a [cross_instance_conflict]
   question on every same-array pair with a write of each outermost
   loop, as [Parcheck] asks them, under 30 words (20 now; 190). *)
let test_allocation_budget () =
  let progs =
    List.map
      (fun (b : Suite.t) -> prepared ~unroll:(max 1 (b.Suite.unroll * 4)) (Suite.program b))
      Suite.all
  in
  let candidates =
    List.fold_left
      (fun n p ->
        List.fold_left
          (fun n (b : Block.t) ->
            let accs =
              Array.of_list
                (List.concat_map
                   (fun (s : Stmt.t) ->
                     List.filter_map
                       (fun (op, write) ->
                         match op with
                         | Operand.Elem (base, idxs) -> Some (base, List.length idxs, write)
                         | Operand.Const _ | Operand.Scalar _ -> None)
                       ((s.Stmt.lhs, true)
                       :: List.map (fun o -> (o, false)) (Expr.leaves s.Stmt.rhs)))
                   b.Block.stmts)
            in
            let n = ref n in
            Array.iteri
              (fun i (base, rank, write) ->
                for j = i to Array.length accs - 1 do
                  let base', rank', write' = accs.(j) in
                  if base = base' && rank = rank' && (write || write') then incr n
                done)
              accs;
            !n)
          n (Program.blocks p))
      0 progs
  in
  let questions =
    List.concat_map
      (fun (p : Program.t) ->
        List.concat_map
          (function
            | Program.Stmts _ -> []
            | Program.Loop l ->
                let accs = List.map lib_access (loop_accesses l) in
                List.concat_map
                  (fun (a : Depend.access) ->
                    List.filter_map
                      (fun (b : Depend.access) ->
                        if a.Depend.base = b.Depend.base && (a.Depend.write || b.Depend.write)
                        then Some (l.Program.index, a, b)
                        else None)
                      accs)
                  accs)
          p.Program.body)
      progs
  in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let graph = words (fun () -> List.iter (fun p -> ignore (Depend.of_program p)) progs) in
  let asked =
    words (fun () ->
        List.iter
          (fun (pvar, a, b) -> ignore (Depend.cross_instance_conflict ~pvar a b))
          questions)
  in
  let per_pair = graph /. float_of_int candidates
  and per_question = asked /. float_of_int (List.length questions) in
  if not (per_pair < 40.0) then
    Alcotest.failf "of_program: %.0f minor words over %d candidate pairs (%.1f per pair)" graph
      candidates per_pair;
  if not (per_question < 30.0) then
    Alcotest.failf "cross_instance_conflict: %.0f minor words over %d questions (%.1f each)"
      asked (List.length questions) per_question

let arb_reference_case =
  let open QCheck.Gen in
  let source =
    frequency
      [
        (3, map (fun s -> `Source s) gen_kernel_source);
        (1, map (fun seed -> `Gen seed) (int_bound 1_000_000));
      ]
  in
  QCheck.make
    ~print:(fun (src, unroll) ->
      Printf.sprintf "unroll %d\n%s" unroll
        (match src with
        | `Source s -> s
        | `Gen seed -> Printf.sprintf "Slp_fuzz.Gen.program seed %d" seed))
    (pair source (int_range 1 8))

let prop_matches_reference =
  QCheck.Test.make ~name:"graph, pairs and chunk conflicts match the reference"
    ~count:2000 arb_reference_case (fun (src, unroll) ->
      let prog =
        match src with
        | `Source s -> parse ~name:"eqv" s
        | `Gen seed -> Slp_fuzz.Gen.program ~name:"eqv" (Slp_util.Prng.create seed)
      in
      match reference_difference (prepared ~unroll prog) with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

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
          Alcotest.test_case "every pair list pinned" `Quick test_pairs_pinned;
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
      ( "reference",
        [
          Alcotest.test_case "unbound subscript variables" `Quick test_unbound_variables;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
          Seeded.to_alcotest prop_matches_reference;
        ] );
    ]
