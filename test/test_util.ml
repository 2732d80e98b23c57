(* Unit tests for the utility library: dense-graph cycle detection,
   PRNG and table rendering. *)

module G = Slp_util.Graph
module Prng = Slp_util.Prng
module Tab = Slp_util.Tabulate

(* -- directed graphs -------------------------------------------------- *)

let test_directed_cycle () =
  Alcotest.(check bool) "dense: empty" true (G.acyclic [||]);
  Alcotest.(check bool) "dense: repeated edges" true (G.acyclic [| [ 1; 1 ]; [ 2 ]; [] |]);
  Alcotest.(check bool) "dense: three-cycle" false (G.acyclic [| [ 1 ]; [ 2 ]; [ 0 ] |]);
  Alcotest.(check bool) "dense: self loop" false (G.acyclic [| []; [ 1 ] |])

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
      ( "graph.directed",
        [ Alcotest.test_case "cycle detection" `Quick test_directed_cycle ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "fill floats" `Quick test_prng_fill_floats;
        ] );
      ( "tabulate", [ Alcotest.test_case "alignment" `Quick test_tabulate_alignment ] );
    ]
