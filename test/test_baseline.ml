(* Tests for the baseline vectorizers: Larsen-Amarasinghe SLP (seeds,
   chain extension, combination) and the conservative Native scheme —
   including the paper's central claim that on the Figure 15 block the
   baseline captures only one superword reuse where the holistic
   grouping captures three. *)

open Slp_ir
module Larsen = Slp_baseline.Larsen
module Native = Slp_baseline.Native
module Config = Slp_core.Config
module Grouping = Slp_core.Grouping
module Schedule = Slp_core.Schedule

let config = Config.make ~datapath_bits:128 ()

let fig15_env () =
  let env = Env.create () in
  List.iter
    (fun v -> Env.declare_scalar env v Types.F64)
    [ "a"; "b"; "c"; "d"; "g"; "h"; "q"; "r" ];
  Env.declare_array env "A" Types.F64 [ 1024 ];
  Env.declare_array env "B" Types.F64 [ 4096 ];
  env

let fig15_block () =
  let open Expr.Infix in
  let i4 = 4 @* i "i" and i2 = 2 @* i "i" in
  Block.of_rhs ~label:"fig15"
    [
      (Operand.Scalar "a", arr "A" [ i "i" ]);
      (Operand.Scalar "c", sc "a" * arr "B" [ i4 ]);
      (Operand.Scalar "g", sc "q" * arr "B" [ i4 @+ -2 ]);
      (Operand.Scalar "b", arr "A" [ i "i" @+ 1 ]);
      (Operand.Scalar "d", sc "b" * arr "B" [ i4 @+ 4 ]);
      (Operand.Scalar "h", sc "r" * arr "B" [ i4 @+ 2 ]);
      (Operand.Elem ("A", [ i2 ]), sc "d" + (sc "a" * sc "c"));
      (Operand.Elem ("A", [ i2 @+ 2 ]), sc "g" + (sc "r" * sc "h"));
    ]

let sorted_groups (r : Grouping.result) =
  List.sort compare (List.map (List.sort compare) r.Grouping.groups)

let test_larsen_fig15_grouping () =
  let env = fig15_env () in
  let block = fig15_block () in
  let r = Larsen.group ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  (* The only adjacent-memory seed is <S1,S4> (A[i], A[i+1]; the
     stores A[2i], A[2i+2] are NOT adjacent); the def-use chain from
     (a,b) then yields <S2,S5> and stops, since c and d are both
     consumed by the same statement.  The paper's Figure 15(b) lists
     <S3,S6> and <S7,S8> in SLP's final set as well, but they are not
     derivable from the seed by the chain-following mechanism the
     paper itself describes; the decisive claim — the baseline pairs
     the multiplies as {2,5} (one reuse) where the holistic grouping
     picks {2,6}/{3,5} (three reuses) — is checked below. *)
  Alcotest.(check (list (list int)))
    "seed plus def-use extension"
    [ [ 1; 4 ]; [ 2; 5 ] ]
    (sorted_groups r)

let test_larsen_vs_global_reuses () =
  let env = fig15_env () in
  let block = fig15_block () in
  let slp_grouping = Larsen.group ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  let slp_sched = Larsen.schedule ~config (Schedule.Facts.make ~deps:(Block.dep_pairs block) block) slp_grouping in
  let global_grouping = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  let global_sched = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block global_grouping in
  let reuses (s : Schedule.t) =
    s.Schedule.stats.Schedule.direct_reuses + s.Schedule.stats.Schedule.permuted_reuses
  in
  Alcotest.(check int) "SLP captures one reuse (Figure 15(b))" 1 (reuses slp_sched);
  Alcotest.(check int) "Global captures three (Figure 15(c))" 3 (reuses global_sched);
  Alcotest.(check bool) "SLP schedule valid" true (Schedule.is_valid ~dep_pairs:(Block.dep_pairs block) block slp_sched)

let test_larsen_seeds_require_adjacency () =
  (* No adjacent memory accesses anywhere: the baseline finds nothing,
     even though the statements are isomorphic and independent. *)
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 64 ];
  Env.declare_array env "B" Types.F64 [ 64 ];
  let e b k = Operand.Elem (b, [ Affine.make [ ("i", 4) ] k ]) in
  let block =
    Block.make
      [
        Stmt.make ~id:1 ~lhs:(e "A" 0) ~rhs:Expr.Infix.(arr "B" [ Affine.make [ ("i", 4) ] 0 ] * cst 2.0);
        Stmt.make ~id:2 ~lhs:(e "A" 2) ~rhs:Expr.Infix.(arr "B" [ Affine.make [ ("i", 4) ] 2 ] * cst 2.0);
      ]
  in
  let r = Larsen.group ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  Alcotest.(check (list (list int))) "no seeds, no groups" [] r.Grouping.groups

let test_larsen_combination_to_four_wide () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F32 [ 64 ];
  Env.declare_array env "B" Types.F32 [ 64 ];
  let e b k = Operand.Elem (b, [ Affine.make [ ("i", 1) ] k ]) in
  let block =
    Block.make
      (List.init 4 (fun k ->
           Stmt.make ~id:(k + 1) ~lhs:(e "A" k) ~rhs:(Expr.Leaf (e "B" k))))
  in
  let r = Larsen.group ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  Alcotest.(check (list (list int)))
    "pairs combined into a quad"
    [ [ 1; 2; 3; 4 ] ]
    (List.map (List.sort compare) r.Grouping.groups)

let test_native_requires_full_contiguity () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 64 ];
  Env.declare_array env "B" Types.F64 [ 64 ];
  let e b k = Operand.Elem (b, [ Affine.make [ ("i", 1) ] k ]) in
  let contiguous =
    Block.make
      (List.init 2 (fun k ->
           let ix = Affine.make [ ("i", 1) ] k in
           Stmt.make ~id:(k + 1) ~lhs:(e "A" k) ~rhs:Expr.Infix.(arr "B" [ ix ] + cst 1.0)))
  in
  let strided =
    Block.make
      (List.init 2 (fun k ->
           let ix = Affine.make [ ("i", 2) ] (2 * k) in
           Stmt.make ~id:(k + 1) ~lhs:(e "A" k)
             ~rhs:Expr.Infix.(arr "B" [ ix ] + cst 1.0)))
  in
  let r1 = Native.group ~dep_pairs:(Block.dep_pairs contiguous) ~env ~config contiguous in
  let r2 = Native.group ~dep_pairs:(Block.dep_pairs strided) ~env ~config strided in
  Alcotest.(check int) "contiguous vectorized" 1 (List.length r1.Grouping.groups);
  Alcotest.(check int) "strided left scalar" 0 (List.length r2.Grouping.groups)

let test_native_broadcast_allowed () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 64 ];
  Env.declare_scalar env "s" Types.F64;
  let e k = Operand.Elem ("A", [ Affine.make [ ("i", 1) ] k ]) in
  let block =
    Block.make
      (List.init 2 (fun k ->
           Stmt.make ~id:(k + 1) ~lhs:(e (k + 8)) ~rhs:Expr.Infix.(sc "s" * (Expr.Leaf (e k)))))
  in
  let r = Native.group ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  Alcotest.(check int) "scalar broadcast accepted" 1 (List.length r.Grouping.groups)

let () =
  Alcotest.run "baseline"
    [
      ( "larsen",
        [
          Alcotest.test_case "figure 15(b) grouping" `Quick test_larsen_fig15_grouping;
          Alcotest.test_case "one reuse vs three" `Quick test_larsen_vs_global_reuses;
          Alcotest.test_case "seeds require adjacency" `Quick test_larsen_seeds_require_adjacency;
          Alcotest.test_case "combination to four-wide" `Quick test_larsen_combination_to_four_wide;
        ] );
      ( "native",
        [
          Alcotest.test_case "full contiguity required" `Quick test_native_requires_full_contiguity;
          Alcotest.test_case "broadcast allowed" `Quick test_native_broadcast_allowed;
        ] );
    ]
