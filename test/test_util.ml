(* Unit and property tests for the utility library: graphs, rationals,
   matrices, PRNG and table rendering. *)

module G = Slp_util.Graph
module Rat = Slp_util.Rat
module Mat = Slp_util.Mat
module Prng = Slp_util.Prng
module Tab = Slp_util.Tabulate

let qtest = QCheck_alcotest.to_alcotest

(* -- undirected graphs ------------------------------------------------ *)

let test_undirected_basic () =
  let g = G.Undirected.create () in
  List.iter (fun i -> G.Undirected.add_node g i (string_of_int i)) [ 1; 2; 3; 4 ];
  G.Undirected.add_edge ~weight:2.5 g 1 2;
  G.Undirected.add_edge g 2 3;
  Alcotest.(check bool) "edge present" true (G.Undirected.mem_edge g 1 2);
  Alcotest.(check bool) "edge symmetric" true (G.Undirected.mem_edge g 2 1);
  Alcotest.(check (float 0.0)) "weight" 2.5 (G.Undirected.weight g 2 1);
  Alcotest.(check int) "degree of hub" 2 (G.Undirected.degree g 2);
  Alcotest.(check (list int)) "neighbours sorted" [ 1; 3 ] (G.Undirected.neighbours g 2);
  Alcotest.(check int) "edge count" 2 (G.Undirected.edge_count g);
  G.Undirected.remove_node g 2;
  Alcotest.(check bool) "edges die with node" true (G.Undirected.is_edgeless g);
  Alcotest.(check int) "node removed" 3 (G.Undirected.node_count g)

let test_undirected_self_loop () =
  let g = G.Undirected.create () in
  G.Undirected.add_node g 1 ();
  Alcotest.check_raises "self loop rejected"
    (Invalid_argument "Graph.Undirected.add_edge: self loop") (fun () ->
      G.Undirected.add_edge g 1 1)

let test_max_degree_node () =
  let g = G.Undirected.create () in
  List.iter (fun i -> G.Undirected.add_node g i ()) [ 1; 2; 3; 4 ];
  Alcotest.(check (option int)) "no edges -> none" None (G.Undirected.max_degree_node g);
  G.Undirected.add_edge g 1 2;
  G.Undirected.add_edge g 1 3;
  G.Undirected.add_edge g 2 3;
  (* 1, 2, 3 all have degree 2: smallest id wins. *)
  Alcotest.(check (option int)) "tie broken by id" (Some 1) (G.Undirected.max_degree_node g);
  G.Undirected.add_edge g 2 4;
  Alcotest.(check (option int)) "now node 2 leads" (Some 2) (G.Undirected.max_degree_node g)

let test_max_weight_edge () =
  let g = G.Undirected.create () in
  List.iter (fun i -> G.Undirected.add_node g i ()) [ 1; 2; 3 ];
  G.Undirected.add_edge ~weight:1.0 g 1 2;
  G.Undirected.add_edge ~weight:3.0 g 2 3;
  match G.Undirected.max_weight_edge g with
  | Some (2, 3, w) -> Alcotest.(check (float 0.0)) "weight" 3.0 w
  | other ->
      Alcotest.failf "expected edge (2,3), got %s"
        (match other with
        | Some (a, b, _) -> Printf.sprintf "(%d,%d)" a b
        | None -> "none")

let test_set_weight () =
  let g = G.Undirected.create () in
  List.iter (fun i -> G.Undirected.add_node g i ()) [ 1; 2 ];
  G.Undirected.add_edge ~weight:1.0 g 1 2;
  G.Undirected.set_weight g 2 1 5.0;
  Alcotest.(check (float 0.0)) "weight updated both ways" 5.0 (G.Undirected.weight g 1 2);
  Alcotest.check_raises "missing edge"
    (Invalid_argument "Graph.Undirected.set_weight: no such edge") (fun () ->
      G.Undirected.set_weight g 1 1 0.0)

let test_undirected_copy_independent () =
  let g = G.Undirected.create () in
  List.iter (fun i -> G.Undirected.add_node g i ()) [ 1; 2 ];
  G.Undirected.add_edge g 1 2;
  let g' = G.Undirected.copy g in
  G.Undirected.remove_edge g' 1 2;
  Alcotest.(check bool) "original untouched" true (G.Undirected.mem_edge g 1 2);
  Alcotest.(check bool) "copy changed" false (G.Undirected.mem_edge g' 1 2)

(* -- directed graphs -------------------------------------------------- *)

let test_directed_topo () =
  let g = G.Directed.create () in
  List.iter (fun i -> G.Directed.add_node g i ()) [ 1; 2; 3; 4 ];
  G.Directed.add_edge g 1 2;
  G.Directed.add_edge g 1 3;
  G.Directed.add_edge g 2 4;
  G.Directed.add_edge g 3 4;
  Alcotest.(check (option (list int)))
    "diamond topo order" (Some [ 1; 2; 3; 4 ]) (G.Directed.topological_order g);
  Alcotest.(check bool) "acyclic" false (G.Directed.has_cycle g);
  Alcotest.(check (list int)) "sources" [ 1 ] (G.Directed.sources g);
  Alcotest.(check bool) "reachable 1->4" true (G.Directed.reachable g 1 4);
  Alcotest.(check bool) "not reachable 4->1" false (G.Directed.reachable g 4 1)

let test_directed_cycle () =
  let g = G.Directed.create () in
  List.iter (fun i -> G.Directed.add_node g i ()) [ 1; 2; 3 ];
  G.Directed.add_edge g 1 2;
  G.Directed.add_edge g 2 3;
  G.Directed.add_edge g 3 1;
  Alcotest.(check bool) "cycle detected" true (G.Directed.has_cycle g);
  Alcotest.(check (option (list int))) "no topo order" None (G.Directed.topological_order g);
  G.Directed.remove_node g 3;
  Alcotest.(check bool) "cycle broken by removal" false (G.Directed.has_cycle g);
  (* The dense successor-list form. *)
  Alcotest.(check bool) "dense: empty" true (G.acyclic [||]);
  Alcotest.(check bool) "dense: repeated edges" true (G.acyclic [| [ 1; 1 ]; [ 2 ]; [] |]);
  Alcotest.(check bool) "dense: three-cycle" false (G.acyclic [| [ 1 ]; [ 2 ]; [ 0 ] |]);
  Alcotest.(check bool) "dense: self loop" false (G.acyclic [| []; [ 1 ] |])

let test_directed_degrees () =
  let g = G.Directed.create () in
  List.iter (fun i -> G.Directed.add_node g i ()) [ 1; 2; 3 ];
  G.Directed.add_edge g 1 3;
  G.Directed.add_edge g 2 3;
  Alcotest.(check int) "in degree" 2 (G.Directed.in_degree g 3);
  Alcotest.(check int) "out degree" 0 (G.Directed.out_degree g 3);
  Alcotest.(check (list int)) "preds" [ 1; 2 ] (G.Directed.preds g 3)

(* -- rationals --------------------------------------------------------- *)

let rat_gen =
  QCheck.Gen.(
    map2
      (fun n d -> Rat.make n d)
      (int_range (-50) 50)
      (oneof [ int_range 1 20; int_range (-20) (-1) ]))

let arb_rat = QCheck.make ~print:(fun r -> Format.asprintf "%a" Rat.pp r) rat_gen

let prop_rat_add_commutes =
  QCheck.Test.make ~name:"rat add commutes" ~count:200 (QCheck.pair arb_rat arb_rat)
    (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a))

let prop_rat_mul_distributes =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:200
    (QCheck.triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_rat_normalised =
  QCheck.Test.make ~name:"rat always normalised" ~count:200 arb_rat (fun r ->
      let { Rat.num; den } = (r :> Rat.t) in
      den > 0
      &&
      let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
      gcd num den = 1 || num = 0)

let test_rat_basics () =
  Alcotest.(check bool) "1/2 + 1/3 = 5/6" true
    (Rat.equal (Rat.add (Rat.make 1 2) (Rat.make 1 3)) (Rat.make 5 6));
  Alcotest.(check bool) "negative den normalised" true
    (Rat.equal (Rat.make 1 (-2)) (Rat.make (-1) 2));
  Alcotest.(check int) "to_int_exn" 7 (Rat.to_int_exn (Rat.make 14 2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero))

(* -- matrices ---------------------------------------------------------- *)

let test_mat_inverse_identity () =
  let m = Mat.of_int_array [| [| 2; 1 |]; [| 1; 1 |] |] in
  match Mat.inverse m with
  | None -> Alcotest.fail "matrix is invertible"
  | Some inv ->
      Alcotest.(check bool) "m * m^-1 = I" true (Mat.equal (Mat.mul m inv) (Mat.identity 2))

let test_mat_singular () =
  let m = Mat.of_int_array [| [| 1; 2 |]; [| 2; 4 |] |] in
  Alcotest.(check bool) "singular has no inverse" true (Mat.inverse m = None);
  Alcotest.(check bool) "determinant zero" true (Rat.is_zero (Mat.determinant m))

let test_mat_solve () =
  let a = Mat.of_int_array [| [| 1; 1 |]; [| 1; -1 |] |] in
  let b = [| Rat.of_int 3; Rat.of_int 1 |] in
  match Mat.solve a b with
  | None -> Alcotest.fail "solvable system"
  | Some x ->
      Alcotest.(check bool) "x = (2, 1)" true
        (Rat.equal x.(0) (Rat.of_int 2) && Rat.equal x.(1) (Rat.of_int 1))

let prop_mat_det_triangular =
  QCheck.Test.make ~name:"det of triangular = diagonal product" ~count:100
    QCheck.(pair (QCheck.int_range (-5) 5) (QCheck.int_range (-5) 5))
    (fun (a, b) ->
      let m = Mat.of_int_array [| [| a; 7 |]; [| 0; b |] |] in
      Rat.equal (Mat.determinant m) (Rat.of_int (a * b)))

let test_mat_drop_last () =
  let m = Mat.of_int_array [| [| 1; 2; 3 |]; [| 4; 5; 6 |]; [| 7; 8; 9 |] |] in
  let d = Mat.drop_last_row_col m in
  Alcotest.(check int) "rows" 2 (Mat.rows d);
  Alcotest.(check bool) "content" true
    (Mat.equal d (Mat.of_int_array [| [| 1; 2 |]; [| 4; 5 |] |]))

let test_mat_mul_vec () =
  let m = Mat.of_int_array [| [| 1; 2 |]; [| 3; 4 |] |] in
  let v = Mat.mul_vec m [| Rat.of_int 1; Rat.of_int 1 |] in
  Alcotest.(check bool) "Av" true
    (Rat.equal v.(0) (Rat.of_int 3) && Rat.equal v.(1) (Rat.of_int 7))

(* -- prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v;
    let f = Prng.float rng 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 (fun i -> i)) sorted

(* [fill_floats] draws what as many [float] calls would, bit for bit,
   leaves the generator where they would, and allocates nothing. *)
let test_prng_fill_floats () =
  let n = 10_000 in
  let a = Prng.create 5 and b = Prng.create 5 in
  let expected = Array.init n (fun _ -> Prng.float a 3.0) in
  let filled = Float.Array.make n 0.0 in
  let before = Gc.minor_words () in
  Prng.fill_floats b 3.0 filled;
  let words = Gc.minor_words () -. before in
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float (Float.Array.get filled i) then
        Alcotest.failf "draw %d differs" i)
    expected;
  Alcotest.(check int) "same state afterwards" (Prng.int a 1_000_000) (Prng.int b 1_000_000);
  Alcotest.(check bool) "no allocation per draw" true (words < 100.0)

(* -- tabulate ------------------------------------------------------------ *)

let test_tabulate_alignment () =
  let s = Tab.render ~header:[ "a"; "bb" ] ~rows:[ [ "xxx"; "y" ]; [ "z" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has header + rule + 2 rows" true (List.length lines >= 4);
  Alcotest.(check string) "pct formatting" "15.2%" (Tab.pct 0.152)

let () =
  Alcotest.run "util"
    [
      ( "graph.undirected",
        [
          Alcotest.test_case "basics" `Quick test_undirected_basic;
          Alcotest.test_case "self loop" `Quick test_undirected_self_loop;
          Alcotest.test_case "max degree node" `Quick test_max_degree_node;
          Alcotest.test_case "max weight edge" `Quick test_max_weight_edge;
          Alcotest.test_case "set weight" `Quick test_set_weight;
          Alcotest.test_case "copy independence" `Quick test_undirected_copy_independent;
        ] );
      ( "graph.directed",
        [
          Alcotest.test_case "topological order" `Quick test_directed_topo;
          Alcotest.test_case "cycle detection" `Quick test_directed_cycle;
          Alcotest.test_case "degrees" `Quick test_directed_degrees;
        ] );
      ( "rat",
        [
          Alcotest.test_case "basics" `Quick test_rat_basics;
          qtest prop_rat_add_commutes;
          qtest prop_rat_mul_distributes;
          qtest prop_rat_normalised;
        ] );
      ( "mat",
        [
          Alcotest.test_case "inverse" `Quick test_mat_inverse_identity;
          Alcotest.test_case "singular" `Quick test_mat_singular;
          Alcotest.test_case "solve" `Quick test_mat_solve;
          Alcotest.test_case "drop last" `Quick test_mat_drop_last;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          qtest prop_mat_det_triangular;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "fill floats" `Quick test_prng_fill_floats;
        ] );
      ( "tabulate", [ Alcotest.test_case "alignment" `Quick test_tabulate_alignment ] );
    ]
