(* Unit tests for the benchmark's own statistics, span accounting and
   seeded input generation. *)

open Perfbench

let feq = Alcotest.float 1e-9

let test_percentile_rule () =
  Alcotest.(check bool) "p90 of 100 has 10 beyond" true (Stats.reportable ~q:0.9 100);
  Alcotest.(check bool) "p90 of 99 has 9 beyond" false (Stats.reportable ~q:0.9 99);
  Alcotest.(check bool) "p99 of 1000" true (Stats.reportable ~q:0.99 1000);
  Alcotest.(check bool) "p99 of 999" false (Stats.reportable ~q:0.99 999);
  Alcotest.(check bool) "median of 1" true (Stats.reportable ~q:0.5 1);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option feq)) "nearest-rank p90" (Some 90.0) (Stats.percentile ~q:0.9 xs);
  Alcotest.(check (option feq)) "p99 withheld" None (Stats.percentile ~q:0.99 xs);
  Alcotest.(check (option feq)) "p50" (Some 50.0) (Stats.percentile ~q:0.5 (List.rev xs))

let test_median () =
  Alcotest.check feq "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_geomean () =
  Alcotest.check feq "two points" 10.0 (Stats.geomean [ 1.0; 100.0 ]);
  Alcotest.check feq "constant" 7.0 (Stats.geomean [ 7.0; 7.0; 7.0 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* job [0,10]: a [1,3] holding b [1.5,2.5]; c [2,5] overlapping a; d [6,7]. *)
let events =
  [
    ("job", 'B', 0.0, [ ("scheme", "global") ]);
    ("prepare", 'B', 1.0, []);
    ("grouping:b0", 'B', 1.5, []);
    ("grouping:b0", 'E', 2.5, []);
    ("prepare", 'E', 3.0, []);
    ("lower", 'B', 6.0, []);
    ("lower", 'E', 7.0, []);
    ("job", 'E', 10.0, []);
  ]

let test_self_time () =
  match Spans.of_events events with
  | [ job ] ->
      Alcotest.check feq "job duration" 10.0 (Spans.duration job);
      Alcotest.check feq "job self = 10 - 2 - 1" 7.0 (Spans.self_time job);
      let prepare = List.hd job.Spans.children in
      Alcotest.check feq "nested child subtracted" 1.0 (Spans.self_time prepare);
      let overlapping =
        {
          job with
          Spans.children =
            [
              { prepare with Spans.start = 1.0; stop = 3.0; children = [] };
              { prepare with Spans.start = 2.0; stop = 5.0; children = [] };
              { prepare with Spans.start = 6.0; stop = 7.0; children = [] };
            ];
        }
      in
      Alcotest.check feq "overlapping siblings counted once" 5.0 (Spans.self_time overlapping);
      let layers = Layers.attribute ~scheme:"global" job in
      Alcotest.check feq "layers sum to the job" 10.0 (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers);
      Alcotest.check feq "grouping" 1.0 (List.assoc "slp_core.grouping_ms" layers);
      Alcotest.check feq "unattributed" 7.0 (List.assoc "pipeline.unattributed_ms" layers)
  | _ -> Alcotest.fail "expected one root span"

let test_unbalanced () =
  Alcotest.check_raises "unclosed" (Invalid_argument "Spans.of_events: unclosed span") (fun () ->
      ignore (Spans.of_events [ ("job", 'B', 0.0, []) ]))

let names jobs = List.map Plan.job_name jobs

let stream ~seed =
  let hot = Plan.hot_set ~seed in
  (names hot, List.init 3 (fun index -> Plan.round ~seed ~index ~base_seed:(Plan.data_seed ~seed)))

let test_seed_determinism () =
  Alcotest.(check int) "suite jobs" 192 (List.length (Plan.suite_jobs ()));
  Alcotest.(check int) "wide jobs" 208 (List.length (Plan.wide_jobs ()));
  let order seed = names (Plan.pass_order ~seed ~pass:0 (Plan.suite_jobs ())) in
  Alcotest.(check (list string)) "same seed, same job order" (order 7) (order 7);
  Alcotest.(check bool) "other seed, other order" true (order 7 <> order 8);
  Alcotest.(check (list string)) "a pass is a permutation"
    (List.sort compare (names (Plan.suite_jobs ())))
    (List.sort compare (order 7));
  Alcotest.(check int) "same data seed" (Plan.data_seed ~seed:7) (Plan.data_seed ~seed:7);
  Alcotest.(check bool) "same seed, same request stream" true (stream ~seed:7 = stream ~seed:7);
  let hot7 = fst (stream ~seed:7) and hot8 = fst (stream ~seed:8) in
  Alcotest.(check bool) "other seed, other triples" true
    (List.sort compare hot7 <> List.sort compare hot8)

let test_hot_set_balance () =
  List.iter
    (fun seed ->
      let hot = Plan.hot_set ~seed in
      Alcotest.(check int) "48 triples" 48 (List.length hot);
      Alcotest.(check int) "distinct" 48 (List.length (List.sort_uniq compare (names hot)));
      let count f x = List.length (List.filter (fun j -> f j = x) hot) in
      List.iter
        (fun (b : Slp_benchmarks.Suite.t) ->
          Alcotest.(check int) "3 per kernel" 3 (count (fun (j : Plan.job) -> j.Plan.kernel.Slp_benchmarks.Suite.name) b.Slp_benchmarks.Suite.name))
        Slp_benchmarks.Suite.all;
      List.iter
        (fun s ->
          List.iter
            (fun m ->
              Alcotest.(check int) "4 per scheme and machine" 4
                (count (fun (j : Plan.job) -> (j.Plan.scheme, Plan.machine_tag j.Plan.machine)) (s, Plan.machine_tag m)))
            Plan.machines)
        Slp_pipeline.Pipeline.all_schemes;
      let round = Plan.round ~seed ~index:0 ~base_seed:(Plan.data_seed ~seed) in
      let misses = List.filter (function Plan.Miss _ -> true | Plan.Hit _ -> false) round in
      Alcotest.(check int) "240 requests a round" 240 (List.length round);
      Alcotest.(check int) "a fifth are misses" 48 (List.length misses);
      let seeds = List.map (function Plan.Miss (_, s) -> s | Plan.Hit _ -> 0) misses in
      Alcotest.(check int) "cold seeds distinct" 48 (List.length (List.sort_uniq compare seeds)))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "unbalanced" `Quick test_unbalanced;
        ] );
      ( "plan",
        [
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "hot set balance" `Quick test_hot_set_balance;
        ] );
    ]
