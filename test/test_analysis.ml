(* Tests for the analysis library: alignment verdicts on the row-major
   linearisation of a reference, def-use chains and scalar liveness. *)

open Slp_ir
module Alignment = Slp_analysis.Alignment
module Chains = Slp_analysis.Chains
module Liveness = Slp_analysis.Liveness

let verdict =
  Alcotest.testable Alignment.pp_verdict (fun a b -> a = b)

let env_of arrays =
  let env = Env.create () in
  List.iter (fun (name, dims) -> Env.declare_array env name Types.F64 dims) arrays;
  env

(* -- access vectors -------------------------------------------------------- *)

let test_access_vector () =
  (* A[2i+1][4j-2] over [8; 16] in nest (i, j): the row-major address
     is (2i+1)*16 + 4j-2 = 32 i + 4 j + 14. *)
  let env = env_of [ ("A", [ 8; 16 ]) ] in
  let op =
    Operand.Elem
      ("A", [ Affine.make [ ("i", 2) ] 1; Affine.make [ ("j", 4) ] (-2) ])
  in
  let at lanes = Alignment.of_operand ~env ~nest:[ "i"; "j" ] ~lanes op in
  Alcotest.(check (option verdict)) "2 lanes" (Some Alignment.Aligned) (at 2);
  Alcotest.(check (option verdict)) "4 lanes" (Some (Alignment.Misaligned 2)) (at 4);
  Alcotest.(check (option verdict)) "8 lanes: 4 j varies" (Some Alignment.Unknown) (at 8)

let test_access_rejects_foreign_vars () =
  let env = env_of [ ("A", [ 64 ]) ] in
  let at op = Alignment.of_operand ~env ~nest:[ "i" ] ~lanes:2 op in
  Alcotest.(check (option verdict)) "foreign variable" None
    (at (Operand.Elem ("A", [ Affine.var "k" ])));
  Alcotest.(check (option verdict)) "scalar has no verdict" None (at (Operand.Scalar "x"))

(* -- alignment -------------------------------------------------------------- *)

let test_alignment_verdicts () =
  let env = env_of [ ("A", [ 64 ]) ] in
  let at coeff const =
    Alignment.of_operand ~env ~nest:[ "i" ] ~lanes:2
      (Operand.Elem ("A", [ Affine.make [ ("i", coeff) ] const ]))
  in
  (* Two lanes: aligned iff coeff and const are even. *)
  Alcotest.(check (option verdict)) "A[2i] aligned" (Some Alignment.Aligned) (at 2 0);
  Alcotest.(check (option verdict)) "A[2i+1] misaligned by one"
    (Some (Alignment.Misaligned 1)) (at 2 1);
  Alcotest.(check (option verdict)) "A[i] varies" (Some Alignment.Unknown) (at 1 0)

let test_summed_coefficient () =
  (* A[i][i] over [8; 3]: the address is 3 i + i = 4 i.  Neither
     subscript's own stride (3, then 1) divides 4 lanes; their sum
     does. *)
  let env = env_of [ ("A", [ 8; 3 ]) ] in
  Alcotest.(check (option verdict)) "A[i][i] at 4 lanes" (Some Alignment.Aligned)
    (Alignment.of_operand ~env ~nest:[ "i" ] ~lanes:4
       (Operand.Elem ("A", [ Affine.var "i"; Affine.var "i" ])))

(* Soundness: whenever the verdict is [Aligned] or [Misaligned k], the
   row-major address of every point of a small box is 0 or k modulo the
   lanes.  Subscripts over (i, j) are drawn with coefficients that are
   often multiples of the lanes, so both kinds of verdict occur. *)
let prop_verdict_sound =
  let gen =
    QCheck.Gen.(
      let* lanes = oneofl [ 1; 2; 4; 8 ] in
      let coeff = oneof [ int_range (-4) 4; map (fun k -> k * lanes) (int_range (-2) 2) ] in
      let subscript =
        map3
          (fun ci cj c -> Affine.make [ ("i", ci); ("j", cj) ] c)
          coeff coeff (int_range (-9) 9)
      in
      let* dims =
        oneof
          [
            map (fun d -> [ d ]) (int_range 1 40);
            map2 (fun a b -> [ a; b ]) (int_range 1 6) (int_range 1 9);
          ]
      in
      let* idxs = flatten_l (List.map (fun _ -> subscript) dims) in
      let* ni = int_range 1 5 and* nj = int_range 1 5 in
      return (lanes, dims, idxs, ni, nj))
  in
  let print (lanes, dims, idxs, ni, nj) =
    Printf.sprintf "lanes %d, dims [%s], A[%s], i < %d, j < %d" lanes
      (String.concat "; " (List.map string_of_int dims))
      (String.concat "][" (List.map Affine.to_string idxs))
      ni nj
  in
  QCheck.Test.make ~name:"verdict holds at every point" ~count:500 (QCheck.make ~print gen)
    (fun (lanes, dims, idxs, ni, nj) ->
      let env = env_of [ ("A", dims) ] in
      (* Row-major strides: the product of the later dimensions. *)
      let strides =
        List.mapi
          (fun k _ -> List.fold_left ( * ) 1 (List.filteri (fun m _ -> m > k) dims))
          dims
      in
      let residue i j =
        let point v = if v = "i" then i else j in
        let addr =
          List.fold_left2 (fun acc ix s -> acc + (Affine.eval ix point * s)) 0 idxs strides
        in
        ((addr mod lanes) + lanes) mod lanes
      in
      let every r =
        List.for_all
          (fun i -> List.for_all (fun j -> residue i j = r) (List.init nj Fun.id))
          (List.init ni Fun.id)
      in
      match Alignment.of_operand ~env ~nest:[ "i"; "j" ] ~lanes (Operand.Elem ("A", idxs)) with
      | Some Alignment.Aligned -> every 0
      | Some (Alignment.Misaligned k) -> 0 < k && k < lanes && every k
      | Some Alignment.Unknown -> true
      | None -> false)

let env_a () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 64 ];
  env

let test_contiguous_pack () =
  let env = env_a () in
  let e k = Operand.Elem ("A", [ Affine.make [ ("i", 1) ] k ]) in
  Alcotest.(check bool) "ascending run" true
    (Alignment.contiguous_pack ~env [ e 0; e 1; e 2 ]);
  Alcotest.(check bool) "gap breaks it" false
    (Alignment.contiguous_pack ~env [ e 0; e 2 ]);
  Alcotest.(check bool) "descending is not contiguous" false
    (Alignment.contiguous_pack ~env [ e 1; e 0 ]);
  Alcotest.(check bool) "single operand is not a pack" false
    (Alignment.contiguous_pack ~env [ e 0 ]);
  Alcotest.(check bool) "scalars are not contiguous memory" false
    (Alignment.contiguous_pack ~env [ Operand.Scalar "x"; Operand.Scalar "y" ])

(* -- chains ------------------------------------------------------------------- *)

let chain_block () =
  Block.of_rhs
    [
      (Operand.Scalar "x", Expr.Infix.(cst 1.0 + cst 1.0));
      (Operand.Scalar "y", Expr.Infix.(sc "x" * cst 2.0));
      (Operand.Scalar "x", Expr.Infix.(sc "x" + cst 1.0));
      (Operand.Scalar "z", Expr.Infix.(sc "x" * sc "y"));
    ]

let test_chains () =
  let c = Chains.compute (chain_block ()) in
  (* S1 defines x; read by S2 and S3 (before S3 redefines it). *)
  Alcotest.(check (list int)) "def-use of S1" [ 2; 3 ] (Chains.def_use c 1);
  (* S4 reads the x from S3 and the y from S2. *)
  Alcotest.(check (list (pair string int)))
    "use-def of S4"
    [ ("x", 3); ("y", 2) ]
    (List.sort compare (Chains.use_def c 4));
  Alcotest.(check (option int)) "reaching def" (Some 3)
    (Chains.reaching_def c ~var:"x" ~before:4);
  Alcotest.(check (option int)) "before the redefinition" (Some 1)
    (Chains.reaching_def c ~var:"x" ~before:3)

let test_chains_linear () =
  (* Smoke test for the linear-time accumulation in Chains.compute: one
     def with ~1000 uses used to cost O(n^2) list appends.  We only
     assert correctness (count and ascending order); the wall-clock
     guard is that the whole suite stays quick. *)
  let n = 1000 in
  let stmts =
    (Operand.Scalar "s", Expr.Infix.(cst 1.0 + cst 1.0))
    :: List.init n (fun k ->
           (Operand.Scalar (Printf.sprintf "t%d" k), Expr.Infix.(sc "s" * cst 2.0)))
  in
  let c = Chains.compute (Block.of_rhs stmts) in
  let uses = Chains.def_use c 1 in
  Alcotest.(check int) "all uses recorded" n (List.length uses);
  Alcotest.(check (list int)) "program order" (List.init n (fun k -> k + 2)) uses;
  (* A long serial chain exercises the use-def side the same way. *)
  let chain =
    (Operand.Scalar "c0", Expr.Infix.(cst 1.0 + cst 1.0))
    :: List.init n (fun k ->
           ( Operand.Scalar (Printf.sprintf "c%d" (k + 1)),
             Expr.Infix.(sc (Printf.sprintf "c%d" k) + cst 1.0) ))
  in
  let c = Chains.compute (Block.of_rhs chain) in
  Alcotest.(check (list (pair string int)))
    "tail of the chain"
    [ (Printf.sprintf "c%d" (n - 1), n) ]
    (Chains.use_def c (n + 1))

(* -- liveness ------------------------------------------------------------------ *)

let test_liveness () =
  let env = Env.create () in
  List.iter (fun v -> Env.declare_scalar env v Types.F64) [ "t"; "acc"; "out" ];
  Env.declare_array env "A" Types.F64 [ 16 ];
  let b1 =
    Block.make ~label:"b1"
      [
        Stmt.make ~id:1 ~lhs:(Operand.Scalar "t")
          ~rhs:Expr.Infix.(arr "A" [ Affine.var "i" ] + cst 0.0);
        Stmt.make ~id:2 ~lhs:(Operand.Scalar "acc") ~rhs:Expr.Infix.(sc "acc" + sc "t");
      ]
  in
  let b2 =
    Block.make ~label:"b2"
      [ Stmt.make ~id:1 ~lhs:(Operand.Scalar "out") ~rhs:Expr.Infix.(sc "acc" * cst 2.0) ]
  in
  let prog =
    Program.make ~name:"p" ~env
      [
        Program.loop "i" ~lo:(Affine.const 0) ~hi:(Affine.const 16) [ Program.Stmts b1 ];
        Program.Stmts b2;
      ]
  in
  let live = Liveness.compute prog in
  (* t: defined then used within b1 only -> dead outside the block's
     vector dataflow. *)
  Alcotest.(check bool) "t not demanded" false (Liveness.demanded live b1 "t");
  (* acc: upward exposed in b1 (loop-carried) and read by b2. *)
  Alcotest.(check bool) "acc upward exposed" true (Liveness.upward_exposed live b1 "acc");
  Alcotest.(check bool) "acc demanded" true (Liveness.demanded live b1 "acc");
  (* out: written in b2, read nowhere else. *)
  Alcotest.(check bool) "out not demanded" false (Liveness.demanded live b2 "out")

let () =
  Alcotest.run "analysis"
    [
      ( "access",
        [
          Alcotest.test_case "access vectors" `Quick test_access_vector;
          Alcotest.test_case "foreign variables" `Quick test_access_rejects_foreign_vars;
        ] );
      ( "alignment",
        [
          Alcotest.test_case "verdicts" `Quick test_alignment_verdicts;
          Alcotest.test_case "contiguous packs" `Quick test_contiguous_pack;
          Alcotest.test_case "summed coefficient decides" `Quick test_summed_coefficient;
          Seeded.to_alcotest prop_verdict_sound;
        ] );
      ( "chains",
        [
          Alcotest.test_case "def-use / use-def" `Quick test_chains;
          Alcotest.test_case "1k-statement linearity" `Quick test_chains_linear;
        ] );
      ("liveness", [ Alcotest.test_case "demand analysis" `Quick test_liveness ]);
    ]
