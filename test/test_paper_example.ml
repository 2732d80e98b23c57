(* Golden tests for the paper's worked example (§6, Figure 15).

   The 8-statement basic block of Figure 15(a) is the paper's own
   demonstration that the holistic grouping beats the original SLP
   algorithm: Global groups {S5,S3} and {S2,S6} (three superword
   reuses) where SLP picks {S2,S5} and {S3,S6} (one reuse). *)

open Slp_ir
module Grouping = Slp_core.Grouping
module Schedule = Slp_core.Schedule
module Config = Slp_core.Config

let env () =
  let env = Env.create () in
  List.iter (fun v -> Env.declare_scalar env v Types.F64) [ "a"; "b"; "c"; "d"; "g"; "h"; "q"; "r" ];
  Env.declare_array env "A" Types.F64 [ 1024 ];
  Env.declare_array env "B" Types.F64 [ 4096 ];
  env

(* Figure 15 (a):
     S1: a = A[i];        S2: c = a * B[4i];    S3: g = q * B[4i-2];
     S4: b = A[i+1];      S5: d = b * B[4i+4];  S6: h = r * B[4i+2];
     S7: A[2i] = d + a*c; S8: A[2i+2] = g + r*h *)
let figure15_block () =
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

let config = Config.make ~datapath_bits:128 ()

let sorted_groups r = List.sort compare (List.map (List.sort compare) r.Grouping.groups)

let test_global_grouping () =
  let block = figure15_block () in
  let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env:(env ()) ~config block in
  Alcotest.(check (list (list int)))
    "holistic grouping picks the reuse-rich pairs"
    [ [ 1; 4 ]; [ 2; 6 ]; [ 3; 5 ]; [ 7; 8 ] ]
    (sorted_groups r);
  Alcotest.(check (list int)) "no singles remain" [] r.Grouping.singles

let test_schedule_reuses () =
  let block = figure15_block () in
  let e = env () in
  let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env:e ~config block in
  let s = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block r in
  Alcotest.(check bool) "schedule is valid" true (Schedule.is_valid ~dep_pairs:(Block.dep_pairs block) block s);
  let total_reuses =
    s.Schedule.stats.Schedule.direct_reuses + s.Schedule.stats.Schedule.permuted_reuses
  in
  Alcotest.(check int) "three superword reuses as in Figure 15(c)" 3 total_reuses

let test_schedule_respects_deps () =
  let block = figure15_block () in
  let e = env () in
  let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env:e ~config block in
  let s = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block r in
  let order = Schedule.scheduled_stmt_ids s in
  let pos id =
    let rec go i = function
      | [] -> failwith "missing"
      | x :: _ when x = id -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  (* a is defined by S1 and used by S2 and S7. *)
  Alcotest.(check bool) "S1 before S2" true (pos 1 < pos 2);
  Alcotest.(check bool) "S1 before S7" true (pos 1 < pos 7);
  Alcotest.(check bool) "S4 before S5" true (pos 4 < pos 5)

let () =
  Alcotest.run "paper_example"
    [
      ( "figure15",
        [
          Alcotest.test_case "global grouping" `Quick test_global_grouping;
          Alcotest.test_case "schedule reuses" `Quick test_schedule_reuses;
          Alcotest.test_case "schedule dependences" `Quick test_schedule_respects_deps;
        ] );
    ]
