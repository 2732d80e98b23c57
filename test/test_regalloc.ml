(* Tests for the vector register allocator: correct rewriting under
   pressure, spill/reload insertion, Belady victim choice, and
   end-to-end semantics on machines with tiny register files. *)

open Slp_ir
module Visa = Slp_vm.Visa
module Regalloc = Slp_codegen.Regalloc
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine

let max_phys_items items =
  Visa.fold_instrs
    (Visa.fold_locs (fun acc ~write:_ -> function Visa.Vreg r -> max acc r | _ -> acc))
    (-1) items

let elem b k = Operand.Elem (b, [ Affine.const k ])

(* A block that keeps [n] vectors live at once: load them all, then
   consume them in definition order. *)
let high_pressure_block n =
  List.init n (fun k -> Visa.Vload { dst = k; elems = [ elem "A" (2 * k); elem "A" ((2 * k) + 1) ] })
  @ List.init (n - 1) (fun k ->
        Visa.Vbin { dst = n + k; op = Types.Add; a = k; b = k + 1 })
  @ [ Visa.Vstore { src = (2 * n) - 2; elems = [ elem "B" 0; elem "B" 1 ] } ]

let test_no_spills_under_capacity () =
  let code, st = Regalloc.allocate_block ~registers:16 (high_pressure_block 4) in
  Alcotest.(check int) "no spills" 0 st.Regalloc.spills;
  Alcotest.(check int) "no reloads" 0 st.Regalloc.reloads;
  Alcotest.(check int) "instruction count unchanged" 8 (List.length code);
  Alcotest.(check bool) "physical regs within file" true
    (max_phys_items [ Visa.Block code ] < 16)

let test_spills_under_pressure () =
  let code, st = Regalloc.allocate_block ~registers:4 (high_pressure_block 8) in
  Alcotest.(check bool) "spills inserted" true (st.Regalloc.spills > 0);
  Alcotest.(check bool) "reloads inserted" true (st.Regalloc.reloads > 0);
  Alcotest.(check bool) "physical regs within tiny file" true
    (max_phys_items [ Visa.Block code ] < 4);
  (* Every reload slot was spilled first. *)
  let spilled = Hashtbl.create 8 in
  List.iter
    (function
      | Visa.Vspill { slot; _ } -> Hashtbl.replace spilled slot ()
      | Visa.Vreload { slot; _ } ->
          if not (Hashtbl.mem spilled slot) then
            Alcotest.failf "reload of slot %d before any spill" slot
      | _ -> ())
    code

let test_rejects_tiny_file () =
  Alcotest.check_raises "needs two registers"
    (Invalid_argument "Regalloc.allocate_block: need at least 2 registers") (fun () ->
      ignore (Regalloc.allocate_block ~registers:1 []))

(* End-to-end: a machine with only 2 vector registers must still
   compute correct results on every kernel (spilling all over). *)
let test_semantics_with_two_registers () =
  let machine = { Machine.intel_dunnington with Machine.vector_registers = 2 } in
  List.iter
    (fun name ->
      let b = Slp_benchmarks.Suite.find name in
      let prog = Slp_benchmarks.Suite.program b in
      let c =
        Pipeline.compile ~unroll:b.Slp_benchmarks.Suite.unroll ~scheme:Pipeline.Global
          ~machine prog
      in
      let r = Pipeline.execute c in
      Alcotest.(check bool) (name ^ " correct with 2 vregs") true r.Pipeline.correct)
    [ "milc"; "povray"; "namd"; "lbm" ]

let test_spill_roundtrip_values () =
  (* Spill/reload must restore exact lane values. *)
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 8 ];
  Env.declare_array env "B" Types.F64 [ 8 ];
  let prog =
    {
      Visa.name = "spill";
      env;
      setup = [];
      body =
        [
          Visa.Block
            [
              Visa.Vload { dst = 0; elems = [ elem "A" 0; elem "A" 1 ] };
              Visa.Vspill { src = 0; slot = 3 };
              Visa.Vbroadcast { dst = 0; src = Visa.Imm 9.0; lanes = 2 };
              Visa.Vreload { dst = 1; slot = 3 };
              Visa.Vstore { src = 1; elems = [ elem "B" 0; elem "B" 1 ] };
            ];
        ];
    }
  in
  let memory = Slp_vm.Memory.create ~env () in
  Slp_vm.Memory.store memory "A" 0 1.25;
  Slp_vm.Memory.store memory "A" 1 2.5;
  let r = Slp_vm.Vector_exec.run ~memory ~machine:Machine.intel_dunnington prog in
  Alcotest.(check (float 0.0)) "lane 0 restored" 1.25
    (Slp_vm.Memory.load r.Slp_vm.Vector_exec.memory "B" 0);
  Alcotest.(check (float 0.0)) "lane 1 restored" 2.5
    (Slp_vm.Memory.load r.Slp_vm.Vector_exec.memory "B" 1);
  Alcotest.(check int) "spill counted as vector store" 1
    (r.Slp_vm.Vector_exec.counters.Slp_vm.Counters.vector_stores - 1)

let () =
  Alcotest.run "regalloc"
    [
      ( "allocation",
        [
          Alcotest.test_case "no spills under capacity" `Quick test_no_spills_under_capacity;
          Alcotest.test_case "spills under pressure" `Quick test_spills_under_pressure;
          Alcotest.test_case "tiny file rejected" `Quick test_rejects_tiny_file;
          Alcotest.test_case "semantics with 2 registers" `Quick
            test_semantics_with_two_registers;
          Alcotest.test_case "spill roundtrip" `Quick test_spill_roundtrip_values;
        ] );
    ]
