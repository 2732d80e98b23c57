(* Tests for the machine models (Tables 1-2) and property-based
   invariants of the SLP optimizer on random blocks: groupings must
   partition the statements, respect the datapath and dependences, and
   schedules must always be valid. *)

open Slp_ir
module Machine = Slp_machine.Machine
module Config = Slp_core.Config
module Grouping = Slp_core.Grouping
module Schedule = Slp_core.Schedule

(* -- machine models ---------------------------------------------------- *)

let test_models_match_tables () =
  let intel = Machine.intel_dunnington in
  Alcotest.(check int) "intel cores (Table 1)" 12 intel.Machine.cores;
  Alcotest.(check (float 0.001)) "intel clock" 2.40 intel.Machine.frequency_ghz;
  Alcotest.(check int) "intel L1d 32KB" (32 * 1024) intel.Machine.l1.Machine.size_bytes;
  Alcotest.(check int) "intel L1 8-way" 8 intel.Machine.l1.Machine.ways;
  Alcotest.(check int) "64-byte lines" 64 intel.Machine.l1.Machine.line_bytes;
  let amd = Machine.amd_phenom_ii in
  Alcotest.(check int) "amd cores (Table 2)" 4 amd.Machine.cores;
  Alcotest.(check (float 0.001)) "amd clock" 3.00 amd.Machine.frequency_ghz;
  Alcotest.(check int) "amd L1d 64KB" (64 * 1024) amd.Machine.l1.Machine.size_bytes;
  Alcotest.(check int) "amd L1 2-way" 2 amd.Machine.l1.Machine.ways;
  Alcotest.(check int) "amd L3 48-way" 48 amd.Machine.l3.Machine.ways;
  (* The paper attributes AMD's lower savings to costlier packing. *)
  Alcotest.(check bool) "amd packs cost more" true
    (amd.Machine.costs.Machine.insert > intel.Machine.costs.Machine.insert)

let test_lanes_and_widths () =
  let intel = Machine.intel_dunnington in
  Alcotest.(check int) "f64 lanes" 2 (Machine.lanes intel ~elem_bytes:8);
  Alcotest.(check int) "f32 lanes" 4 (Machine.lanes intel ~elem_bytes:4);
  let wide = Machine.with_simd_bits intel 512 in
  Alcotest.(check int) "wide f64 lanes" 8 (Machine.lanes wide ~elem_bytes:8);
  Alcotest.(check int) "cache params preserved" intel.Machine.l2.Machine.size_bytes
    wide.Machine.l2.Machine.size_bytes;
  Alcotest.check_raises "bad width"
    (Invalid_argument "Machine.with_simd_bits: bits must be a positive multiple of 64")
    (fun () -> ignore (Machine.with_simd_bits intel 100))

let test_describe_rows () =
  let rows = Machine.describe Machine.intel_dunnington in
  Alcotest.(check bool) "has the Table 1 row labels" true
    (List.mem_assoc "Number of Cores" rows
    && List.mem_assoc "L1 Data" rows
    && List.mem_assoc "Core Type" rows)

(* -- random-block invariants -------------------------------------------- *)

let config = Config.make ~datapath_bits:128 ()

let gen_block_and_env =
  QCheck.Gen.(
    let subscript = map2 (fun c k -> Affine.make [ ("i", c) ] k) (int_range 1 2) (int_range 0 4) in
    let operand =
      frequency
        [
          (3, map2 (fun a ix -> Operand.Elem (a, [ ix ])) (oneofl [ "A"; "B" ]) subscript);
          (2, map (fun v -> Operand.Scalar v) (oneofl [ "x"; "y"; "z" ]));
          (1, map (fun f -> Operand.Const (float_of_int f)) (int_range 0 9));
        ]
    in
    let expr =
      frequency
        [
          (1, map (fun op -> Expr.Leaf op) operand);
          ( 2,
            map3
              (fun op l r -> Expr.Bin (op, Expr.Leaf l, Expr.Leaf r))
              (oneofl [ Types.Add; Types.Sub; Types.Mul ])
              operand operand );
        ]
    in
    let lhs =
      frequency
        [
          (3, map2 (fun a ix -> Operand.Elem (a, [ ix ])) (oneofl [ "A"; "B" ]) subscript);
          (1, map (fun v -> Operand.Scalar v) (oneofl [ "x"; "y"; "z" ]));
        ]
    in
    map
      (fun stmts ->
        let env = Env.create () in
        List.iter (fun a -> Env.declare_array env a Types.F64 [ 64 ]) [ "A"; "B" ];
        List.iter (fun v -> Env.declare_scalar env v Types.F64) [ "x"; "y"; "z" ];
        ( env,
          Block.make ~label:"rand"
            (List.mapi (fun k (l, r) -> Stmt.make ~id:(k + 1) ~lhs:l ~rhs:r) stmts) ))
      (list_size (int_range 2 10) (pair lhs expr)))

let arb_block =
  QCheck.make ~print:(fun (_, b) -> Block.to_string b) gen_block_and_env

let prop_grouping_partitions =
  QCheck.Test.make ~name:"grouping partitions the block" ~count:150 arb_block
    (fun (env, block) ->
      let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
      let all = List.concat r.Grouping.groups @ r.Grouping.singles in
      List.sort compare all = Block.stmt_ids block)

let prop_grouping_respects_datapath =
  QCheck.Test.make ~name:"groups fit the datapath" ~count:150 arb_block
    (fun (env, block) ->
      let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
      List.for_all (fun g -> List.length g * 64 <= 128) r.Grouping.groups)

let prop_grouping_members_independent =
  QCheck.Test.make ~name:"group members are pairwise independent" ~count:150 arb_block
    (fun (env, block) ->
      let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
      List.for_all
        (fun g ->
          let rec pairs = function
            | [] -> true
            | a :: rest ->
                List.for_all (fun b -> Block.independent block a b) rest && pairs rest
          in
          pairs g)
        r.Grouping.groups)

let prop_schedule_always_valid =
  QCheck.Test.make ~name:"schedules are always valid" ~count:150 arb_block
    (fun (env, block) ->
      let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
      let s = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block r in
      Schedule.is_valid ~dep_pairs:(Block.dep_pairs block) block s)

let prop_schedule_valid_all_options =
  QCheck.Test.make ~name:"schedules valid under every option combination" ~count:80
    arb_block (fun (env, block) ->
      let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
      List.for_all
        (fun options ->
          Schedule.is_valid ~dep_pairs:(Block.dep_pairs block) block (Schedule.run ~options ~dep_pairs:(Block.dep_pairs block) ~config block r))
        [
          { Schedule.selection = Schedule.Reuse_driven;
            ordering_search = Schedule.Direct_reuse_only };
          { Schedule.selection = Schedule.Program_order;
            ordering_search = Schedule.Direct_reuse_only };
          { Schedule.selection = Schedule.Reuse_driven;
            ordering_search = Schedule.Exhaustive };
          { Schedule.selection = Schedule.Program_order;
            ordering_search = Schedule.Exhaustive };
        ])

let prop_exhaustive_never_worse =
  QCheck.Test.make ~name:"exhaustive ordering search never loses reuses" ~count:80
    arb_block (fun (env, block) ->
      let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
      let reuses options =
        let s = Schedule.run ~options ~dep_pairs:(Block.dep_pairs block) ~config block r in
        s.Schedule.stats.Schedule.direct_reuses
      in
      reuses
        { Schedule.selection = Schedule.Reuse_driven;
          ordering_search = Schedule.Exhaustive }
      >= reuses Schedule.default_options)

let prop_baseline_schedule_valid =
  QCheck.Test.make ~name:"baseline schedules are always valid" ~count:150 arb_block
    (fun (env, block) ->
      let r = Slp_baseline.Larsen.group ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
      let s = Slp_baseline.Larsen.schedule ~config (Schedule.Facts.make ~deps:(Block.dep_pairs block) block) r in
      Schedule.is_valid ~dep_pairs:(Block.dep_pairs block) block s)

let () =
  Alcotest.run "machine_and_invariants"
    [
      ( "machine",
        [
          Alcotest.test_case "models match Tables 1-2" `Quick test_models_match_tables;
          Alcotest.test_case "lanes and widths" `Quick test_lanes_and_widths;
          Alcotest.test_case "describe rows" `Quick test_describe_rows;
        ] );
      ( "invariants",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_grouping_partitions;
            prop_grouping_respects_datapath;
            prop_grouping_members_independent;
            prop_schedule_always_valid;
            prop_schedule_valid_all_options;
            prop_exhaustive_never_worse;
            prop_baseline_schedule_valid;
          ] );
    ]
