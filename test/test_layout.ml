(* Tests for the data layout optimization: scalar placement (§5.1) and
   array replication (§5.2), with Figure 14's mapping (Equation 4)
   checked on the replicas a compiled kernel builds and runs. *)

open Slp_ir
module Scalar_layout = Slp_layout.Scalar_layout
module Array_layout = Slp_layout.Array_layout
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Memory = Slp_vm.Memory

(* -- the paper's Figure 14 mapping ---------------------------------------- *)

(* Compile [src] under Global+Layout without unrolling, check that it
   builds one replica [R] of [source] and runs correctly, and check bit
   for bit, over the whole replica, that [R[lanes·t + k]] holds
   [source[a·t + b_k]] for the [k]th of the lane offsets [offsets]
   (Equation 4 with [p = k]). *)
let check_mapping ~name ~source ~a ~offsets src =
  let prog = Slp_frontend.Parser.parse ~name src in
  let c =
    Pipeline.compile ~unroll:1 ~scheme:Pipeline.Global_layout
      ~machine:Machine.intel_dunnington prog
  in
  Alcotest.(check int) "one replica" 1 c.Pipeline.replica_count;
  let r, mem = Pipeline.execute_with_memory c in
  Alcotest.(check bool) "semantics preserved" true r.Pipeline.correct;
  let replica = Memory.array_values mem (source ^ "__r0")
  and data = Memory.array_values mem source in
  let lanes = List.length offsets in
  Alcotest.(check int) "replica size: 256 iterations" (lanes * 256) (Float.Array.length replica);
  for t = 0 to 255 do
    List.iteri
      (fun k b ->
        let got = Float.Array.get replica ((lanes * t) + k)
        and want = Float.Array.get data ((a * t) + b) in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          Alcotest.failf "%s__r0[%d] = %h, expected %s[%d] = %h" source
            ((lanes * t) + k) got source ((a * t) + b) want)
      offsets
  done

let test_mapping_1d_figure14 () =
  (* A[4i] and A[4i+3] mapped to R[2i] and R[2i+1]: lane 0 has a=4,
     b=0, p=0; lane 1 has a=4, b=3, p=1. *)
  check_mapping ~name:"fig14" ~source:"A" ~a:4 ~offsets:[ 0; 3 ]
    {|
f64 A[1024];
f64 B[512];
for t = 0 to 64 {
  for i = 0 to 256 {
    B[2*i] = A[4*i] * 2.0;
    B[2*i+1] = A[4*i+3] * 3.0;
  }
}
|}

(* -- scalar placement -------------------------------------------------------- *)

let scalar_web_src =
  {|
f64 P[2200];
f64 F[2200];
f64 W[4400];
f64 a; f64 b; f64 c; f64 d; f64 g; f64 h; f64 q; f64 r;
q = 0.7;
r = 0.3;
for t = 0 to 16 {
  for i = 1 to 1024 {
    a = P[2*i];
    b = P[2*i+1];
    c = sqrt(a * W[4*i] + 1.0);
    d = sqrt(b * W[4*i+4] + 1.0);
    g = q * W[4*i-2];
    h = r * W[4*i+2];
    F[2*i] = d + a * c;
    F[2*i+1] = g + r * h;
  }
}
|}

let test_scalar_placement () =
  let prog = Slp_frontend.Parser.parse ~name:"web" scalar_web_src in
  let machine = Machine.intel_dunnington in
  let c = Pipeline.compile ~unroll:1 ~scheme:Pipeline.Global ~machine prog in
  match c.Pipeline.plan with
  | None -> Alcotest.fail "expected a plan"
  | Some plan ->
      let sws = Scalar_layout.collect_scalar_superwords ~env:prog.Program.env plan in
      Alcotest.(check bool) "scalar superwords found" true (List.length sws >= 2);
      let placement = Scalar_layout.place ~env:prog.Program.env plan in
      (* Offsets are distinct multiples of 8, lanes consecutive. *)
      let offsets = List.map snd placement.Scalar_layout.offsets in
      Alcotest.(check int) "distinct"
        (List.length offsets)
        (List.length (List.sort_uniq compare offsets));
      List.iter
        (fun o -> Alcotest.(check int) "8-byte aligned" 0 (o mod 8))
        offsets;
      List.iter
        (fun names ->
          let offs =
            List.map (fun v -> List.assoc v placement.Scalar_layout.offsets) names
          in
          let rec consecutive = function
            | a :: (b :: _ as rest) ->
                Alcotest.(check int) "consecutive lanes" 8 (b - a);
                consecutive rest
            | _ -> ()
          in
          consecutive offs;
          (* Vector-aligned start. *)
          Alcotest.(check int) "pack-aligned" 0
            (List.hd offs mod (8 * List.length names)))
        placement.Scalar_layout.placed_superwords

let test_scalar_placement_conflicts () =
  (* Conflicting superwords: the more frequent one wins, the other is
     skipped. *)
  let env = Env.create () in
  List.iter (fun v -> Env.declare_scalar env v Types.F64) [ "a"; "b"; "c" ];
  (* Fake a plan via direct construction is heavy; instead check the
     invariant on the real web program: every variable placed at most
     once. *)
  let prog = Slp_frontend.Parser.parse ~name:"web" scalar_web_src in
  let c =
    Pipeline.compile ~unroll:1 ~scheme:Pipeline.Global ~machine:Machine.intel_dunnington
      prog
  in
  ignore env;
  match c.Pipeline.plan with
  | None -> Alcotest.fail "expected plan"
  | Some plan ->
      let placement = Scalar_layout.place ~env:prog.Program.env plan in
      let names = List.map fst placement.Scalar_layout.offsets in
      Alcotest.(check int) "no variable placed twice"
        (List.length names)
        (List.length (List.sort_uniq String.compare names))

(* -- array replication --------------------------------------------------------- *)

(* [decide] takes the loops around a block innermost first. *)
let loop ?(step = 1) index lo hi =
  { Program.index; lo = Affine.const lo; hi = Affine.const hi; step; body = [] }

let decision =
  Alcotest.testable
    (fun ppf -> function
      | Array_layout.Keep -> Format.pp_print_string ppf "keep"
      | Array_layout.Skip { source; elems; repeat } ->
          Format.fprintf ppf "skip %s (%d elements, repeat %d)" source elems repeat
      | Array_layout.Replicate r ->
          Format.fprintf ppf "replicate %s (%d lanes, stride %d, coeff %d, size %d)"
            r.Array_layout.source r.Array_layout.lanes r.Array_layout.stride
            r.Array_layout.coeff r.Array_layout.size)
    ( = )

let replicates = function
  | Array_layout.Replicate _ -> true
  | Array_layout.Keep | Array_layout.Skip _ -> false

let test_replicable_pack () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 64 ];
  Env.declare_array env "W" Types.F64 [ 64 ];
  Env.declare_array env "M" Types.F64 [ 8; 8 ];
  let written = function "A" -> true | _ -> false in
  let e b coeff k = Operand.Elem (b, [ Affine.make [ ("i", coeff) ] k ]) in
  (* Sixty-four re-runs of the loop amortise the copy. *)
  let nest = [ loop "i" 0 16; loop "t" 0 64 ] in
  let ok ?(loops = nest) ops = replicates (Array_layout.decide ~env ~written ~loops ops) in
  Alcotest.(check bool) "strided read-only pack" true (ok [ e "W" 4 0; e "W" 4 2 ]);
  Alcotest.(check bool) "written array rejected" false (ok [ e "A" 4 0; e "A" 4 2 ]);
  Alcotest.(check bool) "mixed strides rejected" false (ok [ e "W" 4 0; e "W" 2 2 ]);
  Alcotest.(check bool) "loop-invariant rejected" false (ok [ e "W" 0 0; e "W" 0 2 ]);
  Alcotest.(check bool) "2-D rejected" false
    (ok
       [
         Operand.Elem ("M", [ Affine.var "i"; Affine.const 0 ]);
         Operand.Elem ("M", [ Affine.var "i"; Affine.const 2 ]);
       ]);
  Alcotest.(check bool) "no innermost loop" false (ok ~loops:[] [ e "W" 4 0; e "W" 4 2 ]);
  Alcotest.(check bool) "contiguous ascending unit stride rejected" false
    (ok [ e "W" 1 0; e "W" 1 1 ]);
  (* Beyond the pack's shape: the loop's bounds and step, the
     amortisation rule and the size cap. *)
  Alcotest.(check bool) "symbolic bound rejected" false
    (ok
       ~loops:[ { (loop "i" 0 16) with Program.hi = Affine.var "n" }; loop "t" 0 64 ]
       [ e "W" 4 0; e "W" 4 2 ]);
  Alcotest.(check bool) "step dividing the lanes" true
    (ok ~loops:[ loop ~step:2 "i" 0 16; loop "t" 0 64 ] [ e "W" 4 0; e "W" 4 2 ]);
  Alcotest.(check bool) "2 lanes in a step-4 loop rejected" false
    (ok ~loops:[ loop ~step:4 "i" 0 16; loop "t" 0 64 ] [ e "W" 4 0; e "W" 4 2 ]);
  Alcotest.(check bool) "single pass does not amortise" false
    (ok ~loops:[ loop "i" 0 16 ] [ e "W" 4 0; e "W" 4 2 ]);
  (* 2 lanes x 2.1M iterations: 4.2M elements, over the 4M cap. *)
  Env.declare_array env "H" Types.F64 [ 8_400_000 ];
  Alcotest.check decision "size cap"
    (Array_layout.Skip { source = "H"; elems = 4_200_000; repeat = 64 })
    (Array_layout.decide ~env ~written
       ~loops:[ loop "i" 0 2_100_000; loop "t" 0 64 ]
       [ e "H" 4 0; e "H" 4 2 ])

let test_replicable_rank2 () =
  let env = Env.create () in
  Env.declare_array env "L" Types.F64 [ 16; 64 ];
  let written _ = false in
  let e row coeff k =
    Operand.Elem ("L", [ row; Affine.make [ ("i", coeff) ] k ])
  in
  let p_row = Affine.var "p" in
  let ok ops =
    replicates
      (Array_layout.decide ~env ~written ~loops:[ loop "i" 0 16; loop "t" 0 64 ] ops)
  in
  Alcotest.(check bool) "rank-2 with lane-invariant row" true
    (ok [ e p_row 4 0; e p_row 4 2 ]);
  Alcotest.(check bool) "row varying across lanes rejected" false
    (ok [ e p_row 4 0; e (Affine.add p_row (Affine.const 1)) 4 2 ]);
  Alcotest.(check bool) "row using innermost index rejected" false
    (ok [ e (Affine.var "i") 4 0; e (Affine.var "i") 4 2 ]);
  (* A row chosen by an outer loop is a different replica row on each
     of its iterations, so that loop does not amortise the copy. *)
  let row_loop loops =
    Array_layout.decide ~env ~written ~loops [ e p_row 4 0; e p_row 4 2 ]
  in
  Alcotest.check decision "row from the only outer loop"
    (Array_layout.Skip { source = "L"; elems = 16 * 32; repeat = 1 })
    (row_loop [ loop "i" 0 16; loop "p" 0 16 ]);
  Alcotest.(check bool) "row loop inside a repeating loop" true
    (replicates (row_loop [ loop "i" 0 16; loop "p" 0 16; loop "t" 0 64 ]))

let test_rank2_replication_end_to_end () =
  (* Per-plane strided table: requires the rank-2 replication path. *)
  let src =
    {|
f64 lhs[8][1056];
f64 xv[8][528];
for p = 0 to 8 {
  for t = 0 to 16 {
    for i = 0 to 256 {
      xv[p][2*i]   = xv[p][2*i]   - 0.2 * (lhs[p][4*i]   * xv[p][2*i]);
      xv[p][2*i+1] = xv[p][2*i+1] - 0.2 * (lhs[p][4*i+2] * xv[p][2*i+1]);
    }
  }
}
|}
  in
  let prog = Slp_frontend.Parser.parse ~name:"rank2" src in
  let machine = Machine.intel_dunnington in
  let c = Pipeline.compile ~unroll:1 ~scheme:Pipeline.Global_layout ~machine prog in
  Alcotest.(check bool) "rank-2 replicas created" true (c.Pipeline.replica_count > 0);
  let r = Pipeline.execute c in
  Alcotest.(check bool) "semantics preserved" true r.Pipeline.correct

let test_amortizes () =
  Alcotest.(check bool) "single pass never amortises" false
    (Array_layout.amortizes ~lanes:2 ~repeat:1);
  Alcotest.(check bool) "many repeats amortise" true
    (Array_layout.amortizes ~lanes:2 ~repeat:100)

let test_replication_end_to_end () =
  (* The stencil_layout example kernel: replicas must preserve
     semantics and convert table gathers into vector loads. *)
  let src =
    {|
f64 u[2100];
f64 unew[2100];
f64 w[4300];
for t = 0 to 64 {
  for i = 1 to 1024 {
    unew[i] = w[2*i] * u[i] + w[2*i+1] * (u[i-1] + u[i+1]);
  }
}
|}
  in
  let prog = Slp_frontend.Parser.parse ~name:"stencil" src in
  let machine = Machine.intel_dunnington in
  let c = Pipeline.compile ~scheme:Pipeline.Global_layout ~machine prog in
  Alcotest.(check bool) "replicas created" true (c.Pipeline.replica_count > 0);
  let r = Pipeline.execute c in
  Alcotest.(check bool) "semantics preserved" true r.Pipeline.correct;
  let cg = Pipeline.compile ~scheme:Pipeline.Global ~machine prog in
  let rg = Pipeline.execute ~check:false cg in
  Alcotest.(check bool) "fewer pack loads than Global" true
    (r.Pipeline.counters.Slp_vm.Counters.pack_loads
    < rg.Pipeline.counters.Slp_vm.Counters.pack_loads)

(* -- edge cases ---------------------------------------------------------- *)

let test_empty_plan_layout () =
  (* A strictly sequential chain: nothing groups, so the plan has no
     superwords — scalar placement and replication must both be
     no-ops, not crashes. *)
  let src =
    "f64 A[64];\nf64 s;\nfor i = 0 to 16 {\n  s = A[i] + s;\n  A[i+17] = s * s;\n}"
  in
  let prog = Slp_frontend.Parser.parse ~name:"chain" src in
  let c =
    Pipeline.compile ~unroll:1 ~scheme:Pipeline.Global
      ~machine:Machine.intel_dunnington prog
  in
  match c.Pipeline.plan with
  | None -> Alcotest.fail "expected a plan"
  | Some plan ->
      List.iter
        (fun (bp : Slp_core.Driver.block_plan) ->
          Alcotest.(check int) "no groups" 0
            (List.length bp.Slp_core.Driver.grouping.Slp_core.Grouping.groups))
        plan.Slp_core.Driver.plans;
      Alcotest.(check int) "no scalar superwords" 0
        (List.length (Scalar_layout.collect_scalar_superwords ~env:prog.Program.env plan));
      let placement = Scalar_layout.place ~env:prog.Program.env plan in
      Alcotest.(check int) "no offsets" 0 (List.length placement.Scalar_layout.offsets);
      Alcotest.(check int) "nothing skipped" 0 placement.Scalar_layout.skipped;
      let r = Array_layout.apply plan in
      Alcotest.(check int) "no replicas" 0 (List.length r.Array_layout.replicas);
      Alcotest.(check int) "no setup code" 0 (List.length r.Array_layout.setup)

let test_single_lane_pack_rejected () =
  (* A pack needs at least two lanes; empty and singleton operand
     lists are never replicable. *)
  let env = Env.create () in
  Env.declare_array env "W" Types.F64 [ 64 ];
  let written _ = false in
  let ok =
    Array_layout.decide ~env ~written ~loops:[ loop "i" 0 16; loop "t" 0 64 ]
  in
  Alcotest.check decision "empty pack" Array_layout.Keep (ok []);
  Alcotest.check decision "single lane" Array_layout.Keep
    (ok [ Operand.Elem ("W", [ Affine.make [ ("i", 4) ] 0 ]) ])

let test_max_lane_pack_mapping () =
  (* Four f32 lanes (the 128-bit maximum) reading W[8i + 2k], not one
     contiguous run: W[8t + 2k] lands at R[4t + k], stride L = lanes. *)
  check_mapping ~name:"f32x4" ~source:"W" ~a:8 ~offsets:[ 0; 2; 4; 6 ]
    {|
f32 W[2048];
f32 B[1024];
for t = 0 to 16 {
  for i = 0 to 256 {
    B[4*i] = W[8*i] * 2.0;
    B[4*i+1] = W[8*i+2] * 3.0;
    B[4*i+2] = W[8*i+4] * 4.0;
    B[4*i+3] = W[8*i+6] * 5.0;
  }
}
|}

let test_max_lane_pack_replicable () =
  let env = Env.create () in
  Env.declare_array env "W" Types.F32 [ 256 ];
  let written _ = false in
  let e k = Operand.Elem ("W", [ Affine.make [ ("i", 4) ] k ]) in
  match
    Array_layout.decide ~env ~written
      ~loops:[ loop ~step:2 "i" 0 64; loop "t" 0 16 ]
      [ e 0; e 1; e 2; e 3 ]
  with
  | Array_layout.Replicate r ->
      Alcotest.(check int) "R[2i + k]: 4 lanes over step 2" 2 r.Array_layout.coeff;
      Alcotest.(check int) "4 elements per iteration" (4 * 32) r.Array_layout.size;
      Alcotest.(check (list int)) "lane offsets" [ 0; 1; 2; 3 ]
        r.Array_layout.lane_offsets
  | d -> Alcotest.failf "4-lane f32 pack not replicable: %a" (Alcotest.pp decision) d

let test_outer_repeat () =
  (* The repeat factor is the product of the outer trips, 6 x 5,
     without the innermost loop's; a loop feeding the leading
     subscript drops out.  A replica over the cap shows it. *)
  let env = Env.create () in
  Env.declare_array env "M" Types.F64 [ 300_000; 64 ];
  let written _ = false in
  let nest = [ loop "i" 0 8; loop "s" 0 5; loop "t" 0 6 ] in
  let skip row =
    Array_layout.decide ~env ~written ~loops:nest
      (List.map
         (fun k -> Operand.Elem ("M", [ row; Affine.make [ ("i", 4) ] k ]))
         [ 0; 2 ])
  in
  let elems = 300_000 * 2 * 8 in
  Alcotest.check decision "product of outer trips"
    (Array_layout.Skip { source = "M"; elems; repeat = 30 })
    (skip (Affine.const 0));
  Alcotest.check decision "row from the outermost loop"
    (Array_layout.Skip { source = "M"; elems; repeat = 5 })
    (skip (Affine.var "t"));
  Alcotest.check decision "row from the middle loop"
    (Array_layout.Skip { source = "M"; elems; repeat = 6 })
    (skip (Affine.var "s"));
  (* The gate finds a block's loops in the program: the same pack is
     priced contiguous in the repeated nest and not in the single
     pass. *)
  let prog =
    Slp_frontend.Parser.parse ~name:"t"
      "f64 A[16];\nf64 W[64];\nfor t = 0 to 6 {\n  for s = 0 to 5 {\n    for i = 0 to 8 {\n      A[i] = W[4*i] + W[4*i+2];\n    }\n  }\n}\nfor i = 0 to 8 {\n  A[i+8] = W[4*i] + W[4*i+2];\n}"
  in
  let base (site : Slp_core.Driver.site) =
    Slp_core.Cost.default_query ~env:prog.Program.env ~nest:site.Slp_core.Driver.nest
      ~lanes:2
  in
  let pack =
    List.map (fun k -> Operand.Elem ("W", [ Affine.make [ ("i", 4) ] k ])) [ 0; 2 ]
  in
  let verdicts =
    List.map
      (fun site -> (Array_layout.gate_query prog base site).Slp_core.Cost.contiguous pack)
      (Slp_core.Driver.sites ~precise:false prog)
  in
  Alcotest.(check (list bool)) "gate: repeated nest, single pass" [ true; false ] verdicts

let () =
  Alcotest.run "layout"
    [
      ( "transform",
        [ Alcotest.test_case "figure 14 mapping" `Quick test_mapping_1d_figure14 ] );
      ( "scalar",
        [
          Alcotest.test_case "placement invariants" `Quick test_scalar_placement;
          Alcotest.test_case "conflict handling" `Quick test_scalar_placement_conflicts;
        ] );
      ( "array",
        [
          Alcotest.test_case "replicability conditions" `Quick test_replicable_pack;
          Alcotest.test_case "rank-2 replicability" `Quick test_replicable_rank2;
          Alcotest.test_case "rank-2 end to end" `Quick test_rank2_replication_end_to_end;
          Alcotest.test_case "amortisation rule" `Quick test_amortizes;
          Alcotest.test_case "end to end" `Quick test_replication_end_to_end;
          Alcotest.test_case "outer repeat" `Quick test_outer_repeat;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty groups are a layout no-op" `Quick
            test_empty_plan_layout;
          Alcotest.test_case "single-lane packs rejected" `Quick
            test_single_lane_pack_rejected;
          Alcotest.test_case "max-lane (4x f32) mapping" `Quick
            test_max_lane_pack_mapping;
          Alcotest.test_case "max-lane (4x f32) replicable" `Quick
            test_max_lane_pack_replicable;
        ] );
    ]
