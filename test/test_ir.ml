(* IR tests: affine expressions, operands, expression trees, statements,
   blocks, environments and programs. *)

open Slp_ir

let qtest = QCheck_alcotest.to_alcotest

(* -- affine ------------------------------------------------------------ *)

let affine = Alcotest.testable Affine.pp Affine.equal

let test_affine_canonical () =
  Alcotest.check affine "duplicates summed"
    (Affine.make [ ("i", 3) ] 2)
    (Affine.make [ ("i", 1); ("i", 2) ] 2);
  Alcotest.check affine "zero coeff dropped" (Affine.const 5)
    (Affine.make [ ("i", 2); ("i", -2) ] 5);
  Alcotest.(check (list (pair string int)))
    "terms sorted by variable"
    [ ("a", 1); ("b", 2) ]
    (Affine.terms (Affine.make [ ("b", 2); ("a", 1) ] 0))

let test_affine_arith () =
  let a = Affine.make [ ("i", 2) ] 1 and b = Affine.make [ ("i", 1); ("j", 1) ] (-1) in
  Alcotest.check affine "add" (Affine.make [ ("i", 3); ("j", 1) ] 0) (Affine.add a b);
  Alcotest.check affine "sub" (Affine.make [ ("i", 1); ("j", -1) ] 2) (Affine.sub a b);
  Alcotest.check affine "scale" (Affine.make [ ("i", 6) ] 3) (Affine.scale 3 a);
  Alcotest.check affine "neg twice" a (Affine.neg (Affine.neg a))

let test_affine_subst () =
  (* i := 2j + 1 inside 4i - 2  ->  8j + 2. *)
  let e = Affine.make [ ("i", 4) ] (-2) in
  let by = Affine.make [ ("j", 2) ] 1 in
  Alcotest.check affine "subst" (Affine.make [ ("j", 8) ] 2) (Affine.subst e "i" by)

let test_affine_diff_const () =
  let a = Affine.make [ ("i", 4) ] 3 and b = Affine.make [ ("i", 4) ] 1 in
  Alcotest.(check (option int)) "const diff" (Some 2) (Affine.diff_const a b);
  let c = Affine.make [ ("j", 4) ] 3 in
  Alcotest.(check (option int)) "different vars" None (Affine.diff_const a c)

let arb_affine =
  QCheck.make
    ~print:(fun a -> Affine.to_string a)
    QCheck.Gen.(
      map2
        (fun terms c ->
          Affine.make (List.map (fun (v, k) -> ((if v then "i" else "j"), k)) terms) c)
        (list_size (int_bound 3) (pair bool (int_range (-9) 9)))
        (int_range (-20) 20))

let prop_affine_eval_hom =
  QCheck.Test.make ~name:"eval is additive" ~count:200 (QCheck.pair arb_affine arb_affine)
    (fun (a, b) ->
      let env v = if String.equal v "i" then 3 else 5 in
      Affine.eval (Affine.add a b) env = Affine.eval a env + Affine.eval b env)

let prop_affine_subst_eval =
  QCheck.Test.make ~name:"subst agrees with eval" ~count:200
    (QCheck.pair arb_affine arb_affine) (fun (e, by) ->
      let env v = if String.equal v "i" then Affine.eval by (fun _ -> 7) else 7 in
      Affine.eval (Affine.subst e "i" by) (fun _ -> 7) = Affine.eval e env)

(* The canonical form against a list model: a sorted, zero-free
   (variable, coefficient) list and the constant.  Expressions are
   built from random [make] / [add] / [sub] / [scale] / [subst] trees
   over variables that collide and prefix one another. *)
module Affine_model = struct
  type t = (string * int) list * int

  let norm terms =
    List.fold_left
      (fun acc (v, k) ->
        let k' = k + Option.value (List.assoc_opt v acc) ~default:0 in
        (v, k') :: List.remove_assoc v acc)
      [] terms
    |> List.filter (fun (_, k) -> k <> 0)
    |> List.sort (fun (v, _) (w, _) -> String.compare v w)

  let make terms c : t = (norm terms, c)
  let add ((ta, ca) : t) ((tb, cb) : t) : t = (norm (ta @ tb), ca + cb)
  let scale k ((t, c) : t) : t = if k = 0 then ([], 0) else (norm (List.map (fun (v, x) -> (v, k * x)) t), k * c)
  let sub a b = add a (scale (-1) b)

  let subst ((t, c) as e : t) v by =
    match List.assoc_opt v t with
    | None -> e
    | Some k -> add (List.remove_assoc v t, c) (scale k by)

  (* The constant first, then term by term (variable, then
     coefficient), a proper prefix first. *)
  let compare ((ta, ca) : t) ((tb, cb) : t) =
    let c = Int.compare ca cb in
    if c <> 0 then c
    else
      List.compare
        (fun (v, k) (w, j) ->
          let c = String.compare v w in
          if c <> 0 then c else Int.compare k j)
        ta tb
end

type affine_tree =
  | Make of (string * int) list * int
  | Add of affine_tree * affine_tree
  | Sub of affine_tree * affine_tree
  | Scale of int * affine_tree
  | Subst of affine_tree * string * affine_tree

let rec show_tree = function
  | Make (ts, c) ->
      Printf.sprintf "make [%s] %d"
        (String.concat "; " (List.map (fun (v, k) -> Printf.sprintf "%s,%d" v k) ts))
        c
  | Add (a, b) -> Printf.sprintf "add (%s) (%s)" (show_tree a) (show_tree b)
  | Sub (a, b) -> Printf.sprintf "sub (%s) (%s)" (show_tree a) (show_tree b)
  | Scale (k, a) -> Printf.sprintf "scale %d (%s)" k (show_tree a)
  | Subst (e, v, by) -> Printf.sprintf "subst (%s) %s (%s)" (show_tree e) v (show_tree by)

let rec build_affine = function
  | Make (ts, c) -> Affine.make ts c
  | Add (a, b) -> Affine.add (build_affine a) (build_affine b)
  | Sub (a, b) -> Affine.sub (build_affine a) (build_affine b)
  | Scale (k, a) -> Affine.scale k (build_affine a)
  | Subst (e, v, by) -> Affine.subst (build_affine e) v (build_affine by)

let rec build_model = function
  | Make (ts, c) -> Affine_model.make ts c
  | Add (a, b) -> Affine_model.add (build_model a) (build_model b)
  | Sub (a, b) -> Affine_model.sub (build_model a) (build_model b)
  | Scale (k, a) -> Affine_model.scale k (build_model a)
  | Subst (e, v, by) -> Affine_model.subst (build_model e) v (build_model by)

let gen_tree =
  let open QCheck.Gen in
  let var = oneofl [ "i"; "ii"; "i2"; "j"; "k" ] in
  let leaf =
    map2 (fun ts c -> Make (ts, c)) (list_size (int_bound 4) (pair var (int_range (-3) 3))) (int_range (-4) 4)
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (2, map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun k a -> Scale (k, a)) (int_range (-3) 3) (self (n - 1)));
               (1, map3 (fun e v by -> Subst (e, v, by)) (self (n / 2)) var (self (n / 2)));
             ])

let arb_tree_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "a = %s\nb = %s" (show_tree a) (show_tree b))
    QCheck.Gen.(pair gen_tree gen_tree)

let rec canonical = function
  | (v, k) :: ((w, _) :: _ as rest) -> k <> 0 && String.compare v w < 0 && canonical rest
  | [ (_, k) ] -> k <> 0
  | [] -> true

let prop_affine_vs_model =
  QCheck.Test.make ~name:"order and normal form vs a list model" ~count:1000 arb_tree_pair
    (fun (ta, tb) ->
      let a = build_affine ta and b = build_affine tb in
      let ma = build_model ta and mb = build_model tb in
      let sign x = Int.compare x 0 in
      let c = Affine.compare a b in
      Affine.terms a = fst ma
      && Affine.const_part a = snd ma
      && canonical (Affine.terms a)
      && canonical (Affine.terms b)
      && sign c = sign (Affine_model.compare ma mb)
      && sign (Affine.compare b a) = - sign c
      && Affine.equal a b = (c = 0)
      && (a = b) = Affine.equal a b
      && Affine.diff_const a b = Affine.to_const (Affine.sub a b))

(* Every operand of the prepared suite programs (unrolled for 512
   bits), sorted with [Operand.compare], in the order the model gives:
   constants, scalars, then array elements by name and subscripts. *)
let test_operand_order_suite () =
  let model_affine a = (Affine.terms a, Affine.const_part a) in
  let model_compare a b =
    match (a, b) with
    | Operand.Const x, Operand.Const y -> Float.compare x y
    | Operand.Const _, _ -> -1
    | _, Operand.Const _ -> 1
    | Operand.Scalar x, Operand.Scalar y -> String.compare x y
    | Operand.Scalar _, _ -> -1
    | _, Operand.Scalar _ -> 1
    | Operand.Elem (x, ix), Operand.Elem (y, iy) ->
        let c = String.compare x y in
        if c <> 0 then c
        else
          List.compare (fun a b -> Affine_model.compare (model_affine a) (model_affine b)) ix iy
  in
  let operands =
    List.concat_map
      (fun (k : Slp_benchmarks.Suite.t) ->
        let prog =
          Slp_benchmarks.Suite.program k
          |> Slp_transform.Simplify.fold_program
          |> Slp_transform.Unroll.program ~factor:(k.Slp_benchmarks.Suite.unroll * 4)
        in
        List.concat_map
          (fun (b : Block.t) -> List.concat_map Stmt.positions b.Block.stmts)
          (Program.blocks prog))
      Slp_benchmarks.Suite.all
  in
  let by_library = List.stable_sort Operand.compare operands in
  let by_model = List.stable_sort model_compare operands in
  Alcotest.(check bool) "many operands" true (List.length operands > 1000);
  List.iter2
    (fun a b ->
      if not (Operand.equal a b) then
        Alcotest.failf "order differs: %s (Operand.compare) vs %s (model)" (Operand.to_string a)
          (Operand.to_string b))
    by_library by_model

(* -- operand ------------------------------------------------------------- *)

let elem base offsets = Operand.Elem (base, [ Affine.make [ ("i", 1) ] offsets ])

let test_operand_alias () =
  Alcotest.(check bool) "same scalar aliases" true
    (Operand.may_alias (Operand.Scalar "x") (Operand.Scalar "x"));
  Alcotest.(check bool) "different scalars do not" false
    (Operand.may_alias (Operand.Scalar "x") (Operand.Scalar "y"));
  Alcotest.(check bool) "same element aliases" true (Operand.may_alias (elem "A" 0) (elem "A" 0));
  Alcotest.(check bool) "constant offset apart: no alias" false
    (Operand.may_alias (elem "A" 0) (elem "A" 1));
  Alcotest.(check bool) "different arrays: no alias" false
    (Operand.may_alias (elem "A" 0) (elem "B" 0));
  (* A[i] vs A[j]: difference is not constant -> conservative alias. *)
  let aj = Operand.Elem ("A", [ Affine.var "j" ]) in
  Alcotest.(check bool) "symbolic difference aliases" true
    (Operand.may_alias (elem "A" 0) aj);
  Alcotest.(check bool) "constants never alias" false
    (Operand.may_alias (Operand.Const 1.0) (Operand.Const 1.0))

let test_operand_adjacent () =
  let row_size = function "A" -> [ 100 ] | "M" -> [ 4; 5 ] | _ -> assert false in
  Alcotest.(check bool) "A[i] then A[i+1]" true
    (Operand.adjacent_in_memory ~row_size (elem "A" 0) (elem "A" 1));
  Alcotest.(check bool) "order matters" false
    (Operand.adjacent_in_memory ~row_size (elem "A" 1) (elem "A" 0));
  Alcotest.(check bool) "gap of 2 is not adjacent" false
    (Operand.adjacent_in_memory ~row_size (elem "A" 0) (elem "A" 2));
  (* Row-major 2-D: M[r][4] and M[r+1][0] are adjacent. *)
  let m r c = Operand.Elem ("M", [ Affine.const r; Affine.const c ]) in
  Alcotest.(check bool) "row boundary adjacency" true
    (Operand.adjacent_in_memory ~row_size (m 1 4) (m 2 0));
  Alcotest.(check bool) "same row adjacency" true
    (Operand.adjacent_in_memory ~row_size (m 0 2) (m 0 3))

(* -- expr ----------------------------------------------------------------- *)

let sample_expr =
  Expr.Infix.(sc "a" * arr "B" [ Affine.var "i" ] + (cst 2.0 - sc "c"))

let test_expr_leaves_order () =
  Alcotest.(check (list string))
    "left-to-right leaves"
    [ "a"; "B[i]"; "2"; "c" ]
    (List.map Operand.to_string (Expr.leaves sample_expr))

let test_expr_replace_leaves_order () =
  (* Regression: replace_leaves must distribute the list left to right
     even though constructor arguments evaluate right to left. *)
  let new_leaves =
    [ Operand.Scalar "p"; Operand.Scalar "q"; Operand.Scalar "r"; Operand.Scalar "s" ]
  in
  let replaced = Expr.replace_leaves sample_expr new_leaves in
  Alcotest.(check (list string))
    "replacement preserved order"
    [ "p"; "q"; "r"; "s" ]
    (List.map Operand.to_string (Expr.leaves replaced));
  Alcotest.(check bool) "shape unchanged" true (Expr.same_shape sample_expr replaced)

let test_expr_replace_leaves_count () =
  Alcotest.check_raises "too few leaves"
    (Invalid_argument "Expr.replace_leaves: too few leaves") (fun () ->
      ignore (Expr.replace_leaves sample_expr [ Operand.Scalar "p" ]))

let test_expr_shape () =
  let a = Expr.Infix.(sc "x" + sc "y") in
  let b = Expr.Infix.(arr "A" [ Affine.const 0 ] + cst 1.0) in
  let c = Expr.Infix.(sc "x" - sc "y") in
  Alcotest.(check bool) "same ops, different leaves" true (Expr.same_shape a b);
  Alcotest.(check bool) "different ops" false (Expr.same_shape a c)

let test_expr_operators_order () =
  let ops = Expr.operators sample_expr in
  Alcotest.(check int) "three operators" 3 (List.length ops);
  match ops with
  | [ Either.Left Types.Mul; Either.Left Types.Sub; Either.Left Types.Add ] -> ()
  | _ -> Alcotest.fail "operators not in left-to-right bottom-up order"

let test_expr_eval () =
  let env = function
    | Operand.Scalar "a" -> 3.0
    | Operand.Scalar "c" -> 1.0
    | Operand.Elem ("B", _) -> 4.0
    | Operand.Const f -> f
    | _ -> Alcotest.fail "unexpected operand"
  in
  Alcotest.(check (float 1e-9)) "3*4 + (2-1)" 13.0 (Expr.eval sample_expr env)

(* -- stmt ------------------------------------------------------------------ *)

let env_xy () =
  let env = Env.create () in
  List.iter (fun v -> Env.declare_scalar env v Types.F64) [ "x"; "y"; "z"; "w" ];
  Env.declare_scalar env "f" Types.F32;
  Env.declare_array env "A" Types.F64 [ 64 ];
  env

let mk id lhs rhs = Stmt.make ~id ~lhs ~rhs

let test_stmt_isomorphic () =
  let env = env_xy () in
  let s1 = mk 1 (Operand.Scalar "x") Expr.Infix.(sc "y" + cst 1.0) in
  let s2 = mk 2 (Operand.Scalar "z") Expr.Infix.(sc "w" + cst 2.0) in
  let s3 = mk 3 (Operand.Scalar "x") Expr.Infix.(sc "y" * cst 1.0) in
  let s4 = mk 4 (Operand.Elem ("A", [ Affine.const 0 ])) Expr.Infix.(sc "y" + cst 1.0) in
  let s5 = mk 5 (Operand.Scalar "f") Expr.Infix.(sc "y" + cst 1.0) in
  Alcotest.(check bool) "same shape isomorphic" true (Stmt.isomorphic ~env s1 s2);
  Alcotest.(check bool) "different op" false (Stmt.isomorphic ~env s1 s3);
  Alcotest.(check bool) "different store kind" false (Stmt.isomorphic ~env s1 s4);
  Alcotest.(check bool) "different element type" false (Stmt.isomorphic ~env s1 s5)

let test_stmt_rename () =
  let s = mk 1 (Operand.Scalar "x") Expr.Infix.(sc "y" + sc "x") in
  let r = Stmt.rename_scalar s ~old_name:"x" ~new_name:"x9" in
  Alcotest.(check string) "lhs and rhs renamed" "S1: x9 = (y + x9)" (Stmt.to_string r);
  Alcotest.(check int) "expr depth" 1 (Expr.depth r.Stmt.rhs)

let test_stmt_depends () =
  let a0 = Operand.Elem ("A", [ Affine.const 0 ]) in
  let a1 = Operand.Elem ("A", [ Affine.const 1 ]) in
  let s1 = mk 1 (Operand.Scalar "x") Expr.Infix.(cst 1.0 + cst 2.0) in
  let s2 = mk 2 (Operand.Scalar "y") Expr.Infix.(sc "x" + cst 1.0) in
  let s3 = mk 3 a0 Expr.Infix.(sc "y" * cst 2.0) in
  let s4 = mk 4 (Operand.Scalar "z") (Expr.Leaf a0) in
  let s5 = mk 5 a1 (Expr.Leaf (Operand.Const 0.0)) in
  Alcotest.(check bool) "RAW" true (Stmt.depends s1 s2);
  Alcotest.(check bool) "RAW through memory" true (Stmt.depends s3 s4);
  Alcotest.(check bool) "WAW same scalar" true
    (Stmt.depends s1 (mk 6 (Operand.Scalar "x") (Expr.Leaf (Operand.Const 0.0))));
  Alcotest.(check bool) "WAR" true (Stmt.depends s4 (mk 7 a0 (Expr.Leaf (Operand.Const 1.0))));
  Alcotest.(check bool) "disjoint elements independent" false (Stmt.depends s3 s5)

(* -- block ------------------------------------------------------------------ *)

let test_block_deps () =
  let b =
    Block.of_rhs
      [
        (Operand.Scalar "x", Expr.Infix.(cst 1.0 + cst 1.0));
        (Operand.Scalar "y", Expr.Infix.(sc "x" * cst 2.0));
        (Operand.Scalar "z", Expr.Infix.(cst 3.0 * cst 4.0));
      ]
  in
  Alcotest.(check (list (pair int int))) "dep pairs" [ (1, 2) ] (Block.dep_pairs b);
  Alcotest.(check bool) "1 and 3 independent" true (Block.independent b 1 3);
  Alcotest.(check bool) "1 and 2 dependent" false (Block.independent b 1 2)

let test_block_duplicate_ids () =
  let s = mk 1 (Operand.Scalar "x") (Expr.Leaf (Operand.Const 0.0)) in
  Alcotest.check_raises "duplicate ids rejected"
    (Invalid_argument "Block.make: duplicate statement id 1") (fun () ->
      ignore (Block.make [ s; s ]))

(* -- env ---------------------------------------------------------------------- *)

let test_env_declarations () =
  let env = Env.create () in
  Env.declare_scalar env "x" Types.F64;
  Env.declare_array env "A" Types.F32 [ 4; 8 ];
  Alcotest.(check bool) "scalar type" true (Env.scalar_ty env "x" = Some Types.F64);
  Alcotest.(check (list int)) "dims" [ 4; 8 ] (Env.row_size env "A");
  Alcotest.check_raises "scalar/array clash"
    (Invalid_argument "Env.declare_array: x is a scalar") (fun () ->
      Env.declare_array env "x" Types.F64 [ 2 ]);
  Alcotest.check_raises "conflicting redeclare"
    (Invalid_argument "Env.declare_scalar: x redeclared") (fun () ->
      Env.declare_scalar env "x" Types.F32);
  (* Consistent redeclaration is fine. *)
  Env.declare_scalar env "x" Types.F64;
  Alcotest.(check bool) "const unifies with any type" true
    (Env.compatible_ty env (Operand.Const 1.0) (Operand.Scalar "x"))

(* -- program ------------------------------------------------------------------- *)

let valid_program () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 16 ];
  Program.make ~name:"p" ~env
    [
      Program.loop "i" ~lo:(Affine.const 0) ~hi:(Affine.const 16)
        [
          Program.Stmts
            (Block.of_rhs
               [ (Operand.Elem ("A", [ Affine.var "i" ]), Expr.Infix.(cst 1.0 + cst 2.0)) ]);
        ];
    ]

let test_program_validate_ok () =
  match Program.validate (valid_program ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "expected valid: %s" msg

let test_program_validate_errors () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 16 ];
  let bad_rank =
    Program.make ~name:"bad" ~env
      [
        Program.Stmts
          (Block.of_rhs
             [
               ( Operand.Elem ("A", [ Affine.const 0; Affine.const 0 ]),
                 Expr.Infix.(cst 1.0 + cst 1.0) );
             ]);
      ]
  in
  (match Program.validate bad_rank with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "rank mismatch accepted");
  let unbound_subscript =
    Program.make ~name:"bad2" ~env
      [
        Program.Stmts
          (Block.of_rhs
             [ (Operand.Elem ("A", [ Affine.var "k" ]), Expr.Infix.(cst 1.0 + cst 1.0)) ]);
      ]
  in
  (match Program.validate unbound_subscript with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unbound subscript accepted");
  let mixed_types =
    let env = Env.create () in
    Env.declare_scalar env "x" Types.F64;
    Env.declare_scalar env "y" Types.F32;
    Program.make ~name:"bad3" ~env
      [ Program.Stmts (Block.of_rhs [ (Operand.Scalar "x", Expr.Infix.(sc "y" + cst 1.0)) ]) ]
  in
  match Program.validate mixed_types with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "mixed types accepted"

let test_program_trip_count () =
  let l = { Program.index = "i"; lo = Affine.const 2; hi = Affine.const 11; step = 3; body = [] } in
  Alcotest.(check (option int)) "ceil((11-2)/3)" (Some 3) (Program.trip_count l);
  let l2 = { l with Program.hi = Affine.var "n" } in
  Alcotest.(check (option int)) "symbolic bound" None (Program.trip_count l2);
  let l3 = { l with Program.hi = Affine.const 0 } in
  Alcotest.(check (option int)) "empty loop" (Some 0) (Program.trip_count l3)

let () =
  Alcotest.run "ir"
    [
      ( "affine",
        [
          Alcotest.test_case "canonical form" `Quick test_affine_canonical;
          Alcotest.test_case "arithmetic" `Quick test_affine_arith;
          Alcotest.test_case "substitution" `Quick test_affine_subst;
          Alcotest.test_case "diff const" `Quick test_affine_diff_const;
          qtest prop_affine_eval_hom;
          qtest prop_affine_subst_eval;
          qtest prop_affine_vs_model;
        ] );
      ( "operand",
        [
          Alcotest.test_case "aliasing" `Quick test_operand_alias;
          Alcotest.test_case "adjacency" `Quick test_operand_adjacent;
          Alcotest.test_case "suite operands sort as the model" `Quick test_operand_order_suite;
        ] );
      ( "expr",
        [
          Alcotest.test_case "leaves order" `Quick test_expr_leaves_order;
          Alcotest.test_case "replace_leaves order" `Quick test_expr_replace_leaves_order;
          Alcotest.test_case "replace_leaves count" `Quick test_expr_replace_leaves_count;
          Alcotest.test_case "shape equality" `Quick test_expr_shape;
          Alcotest.test_case "operators order" `Quick test_expr_operators_order;
          Alcotest.test_case "evaluation" `Quick test_expr_eval;
        ] );
      ( "stmt",
        [
          Alcotest.test_case "isomorphism" `Quick test_stmt_isomorphic;
          Alcotest.test_case "renaming" `Quick test_stmt_rename;
          Alcotest.test_case "dependences" `Quick test_stmt_depends;
        ] );
      ( "block",
        [
          Alcotest.test_case "dependences" `Quick test_block_deps;
          Alcotest.test_case "duplicate ids" `Quick test_block_duplicate_ids;
        ] );
      ("env", [ Alcotest.test_case "declarations" `Quick test_env_declarations ]);
      ( "program",
        [
          Alcotest.test_case "validate ok" `Quick test_program_validate_ok;
          Alcotest.test_case "validate errors" `Quick test_program_validate_errors;
          Alcotest.test_case "trip count" `Quick test_program_trip_count;
        ] );
    ]
