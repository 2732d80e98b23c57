(* Tests for the simulator substrate: memory, cache, counters, the
   vector ISA interpreters and multicore partitioning. *)

open Slp_ir
module Memory = Slp_vm.Memory
module Cache = Slp_vm.Cache
module Counters = Slp_vm.Counters
module Visa = Slp_vm.Visa
module Scalar_exec = Slp_vm.Scalar_exec
module Vector_exec = Slp_vm.Vector_exec
module Machine = Slp_machine.Machine

let machine = Machine.intel_dunnington

(* How many loop iterations [f]'s runs fast-forward. *)
let forwarded f =
  let before = Slp_vm.Engine.forwarded_iterations () in
  f ();
  Slp_vm.Engine.forwarded_iterations () - before

(* How many loop iterations [f]'s runs skip the values of. *)
let settled f =
  let before = Slp_vm.Engine.settled_iterations () in
  f ();
  Slp_vm.Engine.settled_iterations () - before

let counters_t = Alcotest.testable Counters.pp Counters.equal

(* -- memory ----------------------------------------------------------- *)

let env_with_arrays () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 8 ];
  Env.declare_array env "M" Types.F32 [ 3; 4 ];
  Env.declare_scalar env "x" Types.F64;
  Env.declare_scalar env "y" Types.F64;
  env

let test_memory_layout () =
  let env = env_with_arrays () in
  let mem = Memory.create ~env () in
  Alcotest.(check int) "A base 64-aligned" 0 (Memory.array_base mem "A" mod 64);
  Alcotest.(check int) "elem size f64" 8 (Memory.elem_bytes mem "A");
  Alcotest.(check int) "elem size f32" 4 (Memory.elem_bytes mem "M");
  Alcotest.(check int) "row-major flattening" 6 (Memory.flat_index mem "M" [ 1; 2 ]);
  (* Out-of-bounds accesses raise the structured VM trap carrying the
     array name and offending index. *)
  (match Memory.flat_index mem "M" [ 0; 4 ] with
  | _ -> Alcotest.fail "expected a trap"
  | exception Slp_vm.Trap.Trap info ->
      Alcotest.(check string) "trap array" "M" info.Slp_vm.Trap.array;
      (match info.Slp_vm.Trap.kind with
      | Slp_vm.Trap.Out_of_bounds { index; bound } ->
          Alcotest.(check int) "trap index" 4 index;
          Alcotest.(check int) "trap bound" 4 bound
      | _ -> Alcotest.fail "expected Out_of_bounds");
      Alcotest.(check bool) "trap unattributed outside execution" true
        (info.Slp_vm.Trap.stmt = None))

let test_memory_scalar_layout () =
  let env = env_with_arrays () in
  let mem = Memory.create ~scalar_layout:[ ("y", 0); ("x", 8) ] ~env () in
  Alcotest.(check int) "layout respected" 8
    (Memory.scalar_addr mem "x" - Memory.scalar_addr mem "y");
  Alcotest.check_raises "bad offset rejected"
    (Invalid_argument "Memory.create: scalar offsets must be non-negative multiples of 8")
    (fun () -> ignore (Memory.create ~scalar_layout:[ ("x", 3) ] ~env ()))

let test_memory_values () =
  let env = env_with_arrays () in
  let mem = Memory.create ~env () in
  Memory.store mem "A" 3 1.5;
  Alcotest.(check (float 0.0)) "store/load" 1.5 (Memory.load mem "A" 3);
  Alcotest.(check (float 0.0)) "unset scalar reads zero" 0.0 (Memory.scalar mem "x");
  Memory.set_scalar mem "x" 2.5;
  Alcotest.(check (float 0.0)) "scalar set" 2.5 (Memory.scalar mem "x");
  let mem2 = Memory.create ~env () in
  Memory.init_arrays mem ~seed:9;
  Memory.init_arrays mem2 ~seed:9;
  Alcotest.(check bool) "same seed same contents" true (Memory.same_contents mem mem2);
  (* [x] is set only in [mem]: [equal] compares scalars too, and an
     unset scalar reads 0. *)
  Alcotest.(check bool) "differing scalar caught" false (Memory.equal mem mem2);
  Memory.set_scalar mem2 "x" 2.5;
  Alcotest.(check bool) "same seed same bits" true (Memory.equal mem mem2);
  (* [same_contents] forgives 1e-9; [equal] forgives nothing, not even
     a zero's sign. *)
  let a0 = Memory.load mem2 "A" 0 in
  Memory.store mem2 "A" 0 (a0 +. 1e-12);
  Alcotest.(check bool) "tolerance" true (Memory.same_contents mem mem2);
  Alcotest.(check bool) "no tolerance" false (Memory.equal mem mem2);
  Memory.store mem "A" 0 0.0;
  Memory.store mem2 "A" 0 (-0.0);
  Alcotest.(check bool) "signed zero" false (Memory.equal mem mem2);
  Memory.store mem2 "A" 0 99.0;
  Alcotest.(check bool) "difference detected" false (Memory.same_contents mem mem2)

(* -- cache ------------------------------------------------------------- *)

(* Line accesses of [cache] by resolving level, counted through its
   observer: L1, L2, L3, then memory. *)
let counting cache =
  let counts = Array.make 4 0 in
  Cache.set_observer cache
    (Some
       (fun _ level ->
         let i = min level 3 in
         counts.(i) <- counts.(i) + 1));
  counts

let test_cache_hit_miss () =
  let cache = Cache.create machine in
  let counts = counting cache in
  let miss = Cache.access cache ~addr:0 ~bytes:8 in
  let hit = Cache.access cache ~addr:8 ~bytes:8 in
  Alcotest.(check bool) "first access misses to memory" true (miss > 100.0);
  Alcotest.(check (float 0.0)) "same line hits L1" 3.0 hit;
  Alcotest.(check int) "one miss recorded" 1 counts.(3);
  Alcotest.(check int) "one L1 hit" 1 counts.(0)

let test_cache_associativity_eviction () =
  let cache = Cache.create machine in
  (* L1: 32KB, 8-way, 64B lines -> 64 sets; addresses 64*64 apart share
     a set.  Touch 9 distinct lines of one set: the first is evicted
     from L1 (but served by L2 afterwards). *)
  let stride = 64 * 64 in
  for k = 0 to 8 do
    ignore (Cache.access cache ~addr:(k * stride) ~bytes:8)
  done;
  let again = Cache.access cache ~addr:0 ~bytes:8 in
  Alcotest.(check bool) "evicted from L1, hits L2" true
    (again > 3.0 && again < float_of_int machine.Machine.memory_latency)

let test_cache_straddling () =
  let cache = Cache.create machine in
  let counts = counting cache in
  (* A 16-byte access starting 8 bytes before a line boundary touches
     two lines. *)
  let cycles = Cache.access cache ~addr:56 ~bytes:16 in
  Alcotest.(check int) "two accesses" 2 (Array.fold_left ( + ) 0 counts);
  Alcotest.(check bool) "two line fills" true (cycles > 200.0)

let test_cache_contention () =
  let c1 = Cache.create machine in
  let c2 = Cache.create ~contention:1.5 machine in
  let a = Cache.access c1 ~addr:0 ~bytes:8 in
  let b = Cache.access c2 ~addr:0 ~bytes:8 in
  Alcotest.(check bool) "contention slows misses" true (b > a);
  let a_hit = Cache.access c1 ~addr:0 ~bytes:8 in
  let b_hit = Cache.access c2 ~addr:0 ~bytes:8 in
  Alcotest.(check bool) "contention also taxes hits (bus)" true (b_hit > a_hit)

(* A released hierarchy comes back empty: the next [create] of the same
   geometry resets it instead of allocating a tag store, keeps none of
   the old value's observer, and charges its own contention's
   latencies. *)
let test_cache_reuse () =
  let major_words () = (Gc.quick_stat ()).Gc.major_words in
  let lines = [ 0; 64; 64 * 64; 1 lsl 20 ] in
  let c = Cache.create machine in
  let old_counts = counting c in
  List.iter (fun addr -> ignore (Cache.access c ~addr ~bytes:8)) lines;
  List.iter (fun addr -> ignore (Cache.access c ~addr ~bytes:8)) lines;
  Cache.release c;
  let before = major_words () in
  let c = Cache.create ~contention:1.5 machine in
  Alcotest.(check bool)
    "levels reused, no tag store allocated" true
    (major_words () -. before < 1000.0);
  Alcotest.(check bool) "tags start empty" true
    (Array.for_all (Array.for_all (fun set -> set = [||])) (Cache.tags c));
  let seen = Array.copy old_counts in
  let counts = counting c in
  let bus = 0.5 *. 8.0 in
  List.iter
    (fun addr ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "line %d misses to memory at the new latency" addr)
        ((float_of_int machine.Machine.memory_latency *. 1.5) +. bus)
        (Cache.access c ~addr ~bytes:8))
    lines;
  Alcotest.(check (float 0.0))
    "L1 hit pays the new bus penalty" (3.0 +. bus)
    (Cache.access c ~addr:0 ~bytes:8);
  Alcotest.(check int) "misses counted afresh" (List.length lines) counts.(3);
  Alcotest.(check (array int)) "old observer not called" seen old_counts;
  (* Releasing [c] again after its tag store went to [a] must not hand
     that store out a second time. *)
  Cache.release c;
  let a = Cache.create machine in
  Cache.release c;
  let b = Cache.create machine in
  let b_counts = counting b in
  ignore (Cache.access a ~addr:0 ~bytes:8);
  ignore (Cache.access b ~addr:0 ~bytes:8);
  Alcotest.(check int) "a second release is a no-op" 1 b_counts.(3)

(* A 3-level hierarchy of 64-byte lines from (sets, ways) per level,
   and a generator of them: 1-4 sets of 1-3 ways per level. *)
let tiny_hierarchy levels =
  let spec (sets, ways) =
    { Machine.size_bytes = sets * ways * 64; ways; line_bytes = 64; latency = 1 }
  in
  match List.map spec levels with
  | [ l1; l2; l3 ] -> { machine with Machine.l1; l2; l3 }
  | _ -> assert false

let tiny_levels = QCheck.Gen.(list_repeat 3 (pair (int_range 1 4) (int_range 1 3)))

let show_levels levels =
  String.concat " " (List.map (fun (s, w) -> Printf.sprintf "(%d, %d)" s w) levels)

let show_lines lines = "[" ^ String.concat "; " (List.map string_of_int lines) ^ "]"

(* A stream replayed on a hierarchy settles.  Each level is an LRU
   store fed by the misses of the level above, and an LRU set fed one
   stream twice ends as it ended the first time; so with L levels the
   tags after repetition L are the tags after every later one, and from
   repetition L + 1 on every repetition resolves its lines at the same
   levels.  The engine's fast-forward rests on this.  Random tiny
   hierarchies, streams over 16 lines, repeated L + 3 to L + 6 times. *)
let cache_settles =
  let gen =
    QCheck.Gen.(triple tiny_levels (list_size (int_range 1 24) (int_bound 15)) (int_bound 3))
  in
  let print (levels, stream, extra) =
    Printf.sprintf "levels (sets, ways) %s, stream %s, %d extra repetitions" (show_levels levels)
      (show_lines stream) extra
  in
  QCheck.Test.make ~name:"a replayed stream settles after L repetitions" ~count:2000
    (QCheck.make ~print gen) (fun (levels, stream, extra) ->
      let m = tiny_hierarchy levels in
      let l = Cache.level_count m in
      let c = Cache.create m in
      let counts = counting c in
      let histogram () = Array.to_list counts in
      let reps =
        Array.init (l + 3 + extra) (fun _ ->
            let before = histogram () in
            List.iter (fun line -> ignore (Cache.access c ~addr:(line * 64) ~bytes:8)) stream;
            (List.map2 ( - ) (histogram ()) before, Cache.tags c))
      in
      Cache.release c;
      (* Repetition [r] is [reps.(r - 1)]. *)
      let hist r = fst reps.(r - 1) and tags r = snd reps.(r - 1) in
      List.for_all
        (fun r -> (r <= l || tags r = tags l) && (r <= l + 1 || hist r = hist (l + 1)))
        (List.init (Array.length reps) succ))

(* The rule that ends the fast-forward's warm-up early.  Repetition k
   (k <= L) is steady when it missed no line at level k: levels
   1 .. k - 1 settled before it began (above), so level k sees the
   same stream in repetition k + 1, and a level that missed nothing
   still holds the same lines, so it misses nothing again, ends in the
   same LRU order and passes nothing deeper.  So every later
   repetition resolves each access at the level repetition k did and
   leaves repetition k's tags.  Random tiny hierarchies, started by a
   random prefix stream, and a stream over 16 lines replayed L + 3
   times; after every repetition [Cache.misses] agrees with the
   observer: level k's misses are the accesses resolved below it. *)
let cache_steady_rule =
  let lines n = QCheck.Gen.(list_size (int_range n 24) (int_bound 15)) in
  let gen = QCheck.Gen.(triple tiny_levels (lines 0) (lines 1)) in
  let print (levels, prefix, stream) =
    Printf.sprintf "levels (sets, ways) %s, prefix %s, stream %s" (show_levels levels)
      (show_lines prefix) (show_lines stream)
  in
  QCheck.Test.make ~name:"a repetition that misses nothing at its level is steady" ~count:2000
    (QCheck.make ~print gen) (fun (levels, prefix, stream) ->
      let m = tiny_hierarchy levels in
      let l = Cache.level_count m in
      let c = Cache.create m in
      let counts = counting c in
      let access line = ignore (Cache.access c ~addr:(line * 64) ~bytes:8) in
      (* The level that resolves [line], read off the observer's
         histogram. *)
      let resolve line =
        let before = Array.copy counts in
        access line;
        let rec find i = if counts.(i) > before.(i) then i else find (i + 1) in
        find 0
      in
      let misses () = Array.init l (Cache.misses c) in
      let agrees () =
        List.for_all
          (fun k ->
            let below = ref 0 in
            for i = k + 1 to Array.length counts - 1 do
              below := !below + counts.(i)
            done;
            Cache.misses c k = !below)
          (List.init l Fun.id)
      in
      List.iter access prefix;
      let reps =
        Array.init (l + 3) (fun _ ->
            let before = misses () in
            let resolved = List.map resolve stream in
            (resolved, Array.map2 ( - ) (misses ()) before, Cache.tags c, agrees ()))
      in
      Cache.release c;
      (* Repetition [r] is [reps.(r - 1)]. *)
      let resolved r = let x, _, _, _ = reps.(r - 1) in x
      and missed r = let _, x, _, _ = reps.(r - 1) in x
      and tags r = let _, _, x, _ = reps.(r - 1) in x in
      let steady k =
        (missed k).(k - 1) > 0
        || List.for_all
             (fun r -> r <= k || (resolved r = resolved k && tags r = tags k))
             (List.init (Array.length reps) succ)
      in
      Array.for_all (fun (_, _, _, ok) -> ok) reps && List.for_all steady (List.init l succ))

(* -- counters ------------------------------------------------------------ *)

let test_counters () =
  let c = Counters.create () in
  c.Counters.vector_ops <- 3;
  c.Counters.inserts <- 2;
  c.Counters.pack_loads <- 1;
  c.Counters.scalar_loads <- 4;
  Alcotest.(check int) "dynamic excludes packing" 7 (Counters.dynamic_instructions c);
  Alcotest.(check int) "packing counted separately" 3 (Counters.packing_instructions c);
  Alcotest.(check int) "total" 10 (Counters.total_instructions c);
  let d = Counters.create () in
  d.Counters.vector_ops <- 1;
  Counters.merge_into ~into:c d;
  Alcotest.(check int) "merge" 4 c.Counters.vector_ops

(* -- scalar executor -------------------------------------------------------- *)

let test_scalar_exec_values () =
  let prog =
    Slp_frontend.Parser.parse ~name:"t"
      "f64 A[8];\nf64 B[8];\nfor i = 0 to 8 {\n  B[i] = A[i] * 2.0 + 1.0;\n}"
  in
  let r = Scalar_exec.run ~machine prog in
  let mem = r.Scalar_exec.memory in
  for i = 0 to 7 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "B[%d]" i)
      ((Memory.load mem "A" i *. 2.0) +. 1.0)
      (Memory.load mem "B" i)
  done;
  Alcotest.(check int) "ops counted" 16 r.Scalar_exec.counters.Counters.scalar_ops;
  Alcotest.(check int) "loads counted" 8 r.Scalar_exec.counters.Counters.scalar_loads;
  Alcotest.(check int) "stores counted" 8 r.Scalar_exec.counters.Counters.scalar_stores

let test_scalar_exec_index_as_value () =
  (* A loop index used as an i64 value. *)
  let env = Env.create () in
  Env.declare_array env "A" Types.I64 [ 8 ];
  let prog =
    Program.make ~name:"iota" ~env
      [
        Program.loop "i" ~lo:(Affine.const 0) ~hi:(Affine.const 8)
          [
            Program.Stmts
              (Block.of_rhs
                 [ (Operand.Elem ("A", [ Affine.var "i" ]), Expr.Leaf (Operand.Scalar "i")) ]);
          ];
      ]
  in
  let r = Scalar_exec.run ~machine prog in
  Alcotest.(check (float 0.0)) "A[5] = 5" 5.0 (Memory.load r.Scalar_exec.memory "A" 5)

(* A values-only run traps like a timed run: the same [Trap.info] from
   a read, a store and a rank-2 subscript out of bounds, and an armed
   one-shot fault fires on the same access (the 16th of 16 here, and
   never past the last).  So does a timing-only run, at one core. *)
let test_values_only_trap_parity () =
  let parse src = Slp_frontend.Parser.parse ~name:"oob" src in
  let trap_of f =
    match f () with
    | _ -> None
    | exception Slp_vm.Trap.Trap info -> Some info
  in
  List.iter
    (fun (what, src) ->
      let prog = parse src in
      List.iter
        (fun cores ->
          let timed = trap_of (fun () -> Scalar_exec.run ~cores ~machine prog) in
          let values = trap_of (fun () -> Scalar_exec.final_memory ~cores ~machine prog) in
          let tag = Printf.sprintf "%s, %d core(s)" what cores in
          Alcotest.(check bool) (tag ^ " traps") true (Option.is_some timed);
          Alcotest.(check bool) (tag ^ " same trap") true (timed = values);
          if cores = 1 then
            Alcotest.(check bool) (tag ^ " same timing-only trap") true
              (timed = trap_of (fun () -> Slp_vm.Engine.run_timing ~machine (Visa.of_program prog))))
        [ 1; 2 ])
    [
      ("read", "f64 A[8];\nf64 B[8];\nfor i = 0 to 8 {\n  B[i] = A[i + 1] * 2.0;\n}");
      ("store", "f64 A[8];\nf64 B[8];\nfor i = 0 to 8 {\n  B[i + 2] = A[i];\n}");
      ("rank 2", "f64 M[3][4];\nfor i = 0 to 4 {\n  M[i][1] = M[i][0] + 1.0;\n}");
    ];
  let prog = parse "f64 A[8];\nf64 B[8];\nfor i = 0 to 8 {\n  B[i] = A[i] * 2.0;\n}" in
  List.iter
    (fun (after, fires) ->
      let fired f =
        match Slp_vm.Trap.with_fault ~fault:Slp_vm.Trap.Memory_fault ~after f with
        | _ -> false
        | exception Slp_vm.Trap.Trap _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "timed fault after %d" after)
        fires
        (fired (fun () -> ignore (Scalar_exec.run ~machine prog)));
      Alcotest.(check bool)
        (Printf.sprintf "values-only fault after %d" after)
        fires
        (fired (fun () -> ignore (Scalar_exec.final_memory ~machine prog)));
      Alcotest.(check bool)
        (Printf.sprintf "timing-only fault after %d" after)
        fires
        (fired (fun () -> ignore (Slp_vm.Engine.run_timing ~machine (Visa.of_program prog)))))
    [ (15, true); (16, false) ]

(* -- vector executor --------------------------------------------------------- *)

let test_vector_isa_roundtrip () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 8 ];
  Env.declare_array env "B" Types.F64 [ 8 ];
  Env.declare_scalar env "s" Types.F64;
  let elem b k = Operand.Elem (b, [ Affine.const k ]) in
  let prog =
    {
      Visa.name = "isa";
      env;
      setup = [];
      body =
        [
          Visa.Block
            [
              (* v0 = A[0..1]; v1 = broadcast 10; v2 = v0 + v1 *)
              Visa.Vload { dst = 0; elems = [ elem "A" 0; elem "A" 1 ] };
              Visa.Vbroadcast { dst = 1; src = Visa.Imm 10.0; lanes = 2 };
              Visa.Vbin { dst = 2; op = Types.Add; a = 0; b = 1 };
              Visa.Vstore { src = 2; elems = [ elem "B" 0; elem "B" 1 ] };
              (* permute and unpack *)
              Visa.Vpermute { dst = 3; src = 2; sel = [| 1; 0 |] };
              Visa.Vunpack
                { src = 3; dsts = [ Some (Visa.To_reg "s"); Some (Visa.To_mem (elem "B" 2)) ] };
              (* two-source shuffle *)
              Visa.Vshuffle2 { dst = 4; a = 0; b = 2; sel = [| (0, 1); (1, 0) |] };
              Visa.Vstore { src = 4; elems = [ elem "B" 3; elem "B" 4 ] };
              (* gather mixing memory, register and immediate *)
              Visa.Vgather { dst = 5; srcs = [ Visa.Mem (elem "A" 3); Visa.Reg "s" ] };
              Visa.Vstore { src = 5; elems = [ elem "B" 5; elem "B" 6 ] };
            ];
        ];
    }
  in
  let memory = Memory.create ~env () in
  Array.iteri (fun i _ -> Memory.store memory "A" i (float_of_int i)) (Array.make 8 ());
  let r = Vector_exec.run ~memory ~machine prog in
  let b k = Memory.load r.Vector_exec.memory "B" k in
  Alcotest.(check (float 0.0)) "lane 0" 10.0 (b 0);
  Alcotest.(check (float 0.0)) "lane 1" 11.0 (b 1);
  Alcotest.(check (float 0.0)) "unpack to memory (permuted lane)" 10.0 (b 2);
  Alcotest.(check (float 0.0)) "shuffle lane 0 = a.(1)" 1.0 (b 3);
  Alcotest.(check (float 0.0)) "shuffle lane 1 = b.(0)" 10.0 (b 4);
  Alcotest.(check (float 0.0)) "gather mem lane" 3.0 (b 5);
  Alcotest.(check (float 0.0)) "gather reg lane (s = permuted lane 0 = 11)" 11.0 (b 6);
  (* Counter sanity. *)
  let c = r.Vector_exec.counters in
  Alcotest.(check int) "vector loads" 1 c.Counters.vector_loads;
  Alcotest.(check int) "vector stores" 3 c.Counters.vector_stores;
  Alcotest.(check int) "permutes incl. shuffle2" 2 c.Counters.permutes;
  Alcotest.(check int) "broadcasts" 1 c.Counters.broadcasts;
  Alcotest.(check int) "pack loads" 1 c.Counters.pack_loads;
  Alcotest.(check int) "extracts" 2 c.Counters.extracts

let test_vector_reads_before_write_fail () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 4 ];
  let prog =
    {
      Visa.name = "bad";
      env;
      setup = [];
      body =
        [ Visa.Block [ Visa.Vstore { src = 7; elems = [ Operand.Elem ("A", [ Affine.const 0 ]) ] } ] ];
    }
  in
  Alcotest.check_raises "uninitialised vreg"
    (Invalid_argument "Vector_exec: v7 read before write") (fun () ->
      ignore (Vector_exec.run ~machine prog));
  (* The lane proof fails, so the timing-only run is the timed one. *)
  let fallbacks = Slp_vm.Engine.timing_fallbacks () in
  Alcotest.check_raises "uninitialised vreg, timing-only"
    (Invalid_argument "Vector_exec: v7 read before write") (fun () ->
      ignore (Slp_vm.Engine.run_timing ~machine prog));
  Alcotest.(check int) "ran timed" (fallbacks + 1) (Slp_vm.Engine.timing_fallbacks ())

(* Lane counts travel: each iteration of this loop moves v0's count to
   v1 and v1's to v2, and v0 drops to one lane, so the two-lane store
   of v2 first fails in the third iteration.  The timing-only run must
   prove the loop over every lane state it can enter, not just the
   first two: with 2 iterations it returns the timed counters, with 4
   it raises the timed run's error. *)
let test_lane_proof_fixpoint () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 4 ];
  let elem k = Operand.Elem ("A", [ Affine.const k ]) in
  let pair = [ elem 0; elem 1 ] in
  let prog trips =
    {
      Visa.name = "lanes";
      env;
      setup = [];
      body =
        [
          Visa.Block
            [
              Visa.Vload { dst = 0; elems = pair };
              Visa.Vload { dst = 1; elems = pair };
              Visa.Vload { dst = 2; elems = pair };
            ];
          Visa.Loop
            {
              Visa.index = "i";
              lo = Affine.const 0;
              hi = Affine.const trips;
              step = 1;
              body =
                [
                  Visa.Block
                    [
                      Visa.Vun { dst = 2; op = Types.Neg; a = 1 };
                      Visa.Vun { dst = 1; op = Types.Neg; a = 0 };
                      Visa.Vload { dst = 0; elems = [ elem 0 ] };
                      Visa.Vstore { src = 2; elems = pair };
                    ];
                ];
            };
        ];
    }
  in
  let outcome f = match f () with c -> Ok c | exception Invalid_argument m -> Error m in
  List.iter
    (fun trips ->
      let p = prog trips in
      let timed = outcome (fun () -> (Vector_exec.run ~machine p).Vector_exec.counters) in
      Alcotest.(check bool)
        (Printf.sprintf "%d iterations: timed run fails" trips)
        (trips > 2) (Result.is_error timed);
      Alcotest.(check (result (Alcotest.testable Counters.pp Counters.equal) string))
        (Printf.sprintf "%d iterations" trips)
        timed
        (outcome (fun () -> Slp_vm.Engine.run_timing ~machine p)))
    [ 2; 4 ]

(* Values-only runs of vector programs fail as timed runs do, at one
   and two cores, and leave the same memory behind: the same
   [Trap.info] off the end of an array (a contiguous load and store, a
   gathered lane, an unpacked lane, a rank-2 row), and the same
   [Invalid_argument] for a register read before it is written, a lane
   past a register's width and a spill reloaded before it is stored.
   So does a timing-only run at one core.  The last case's loop
   replays its accesses, and its lane error surfaces in the fifth
   iteration, past the warm-up: the timed engine raises it from a
   values-only iteration, at the interpreter's access. *)
let test_vector_values_only_parity () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 8 ];
  Env.declare_array env "B" Types.F64 [ 8 ];
  Env.declare_array env "M" Types.F64 [ 3; 4 ];
  let i = Affine.var "i" in
  (* [a[2i + k]]: off the end when [i] reaches 4. *)
  let at a k = Operand.Elem (a, [ Affine.add (Affine.scale 2 i) (Affine.const k) ]) in
  let pair a = [ at a 0; at a 1 ] in
  let fixed a k = Operand.Elem (a, [ Affine.const k ]) in
  let prog ?(trips = 5) ?(prologue = []) body =
    {
      Visa.name = "parity";
      env;
      setup = [];
      body =
        [
          Visa.Block prologue;
          Visa.Loop
            {
              Visa.index = "i";
              lo = Affine.const 0;
              hi = Affine.const trips;
              step = 1;
              body = [ Visa.Block body ];
            };
        ];
    }
  in
  let ones = Visa.Vbroadcast { dst = 0; src = Visa.Imm 1.0; lanes = 2 } in
  (* v0 .. v4 start with two lanes; each iteration moves v0's one lane
     one register along, so v4's two-lane store first fails in the
     fifth. *)
  let chain =
    [
      Visa.Vun { dst = 4; op = Types.Neg; a = 3 };
      Visa.Vun { dst = 3; op = Types.Neg; a = 2 };
      Visa.Vun { dst = 2; op = Types.Neg; a = 1 };
      Visa.Vun { dst = 1; op = Types.Neg; a = 0 };
      Visa.Vload { dst = 0; elems = [ fixed "A" 0 ] };
      Visa.Vstore { src = 4; elems = [ fixed "B" 0; fixed "B" 1 ] };
    ]
  in
  let past_warm_up =
    prog ~trips:8
      ~prologue:(List.init 5 (fun dst -> Visa.Vload { dst; elems = [ fixed "A" 0; fixed "A" 1 ] }))
      chain
  in
  (* Each case with the iterations a one-core timed run fast-forwards
     before it fails. *)
  let cases =
    [
      ( "vload",
        prog
          [
            Visa.Vload { dst = 0; elems = pair "A" };
            Visa.Vstore { src = 0; elems = [ fixed "B" 0; fixed "B" 1 ] };
          ],
        0 );
      ("vstore", prog [ ones; Visa.Vstore { src = 0; elems = pair "B" } ], 0);
      ( "gathered lane",
        prog [ Visa.Vgather { dst = 0; srcs = [ Visa.Mem (at "A" 0); Visa.Imm 0.0 ] } ],
        0 );
      ( "unpacked lane",
        prog [ ones; Visa.Vunpack { src = 0; dsts = [ Some (Visa.To_mem (at "B" 1)); None ] } ],
        0 );
      ( "rank 2",
        prog
          [
            Visa.Vload
              { dst = 0; elems = List.init 4 (fun k -> Operand.Elem ("M", [ i; Affine.const k ])) };
          ],
        0 );
      ("read before write", prog [ Visa.Vstore { src = 1; elems = pair "B" } ], 0);
      ( "lane past width",
        prog
          [ Visa.Vload { dst = 0; elems = [ at "A" 0 ] }; Visa.Vstore { src = 0; elems = pair "B" } ],
        0 );
      ( "unset spill",
        prog [ Visa.Vreload { dst = 0; slot = 0 }; Visa.Vstore { src = 0; elems = pair "B" } ],
        0 );
      ("lane error past the warm-up", past_warm_up, 6);
    ]
  in
  let fresh () =
    let m = Memory.create ~env () in
    Memory.init_arrays m ~seed:42;
    m
  in
  let error f =
    match f () with
    | () -> None
    | exception Slp_vm.Trap.Trap info -> Some (Slp_vm.Trap.to_string info)
    | exception Invalid_argument msg -> Some msg
  in
  List.iter
    (fun (what, p, forwards) ->
      List.iter
        (fun cores ->
          let tag = Printf.sprintf "%s, %d core(s)" what cores in
          let timed = fresh () and values = fresh () and reference = fresh () in
          let e = ref None in
          let n =
            forwarded (fun () ->
                e := error (fun () -> ignore (Vector_exec.run ~cores ~memory:timed ~machine p)))
          in
          let e = !e in
          Alcotest.(check bool) (tag ^ " fails") true (Option.is_some e);
          Alcotest.(check int) (tag ^ " fast-forwarded") (if cores = 1 then forwards else 0) n;
          Alcotest.(check (option string)) (tag ^ " interpreter") e
            (error (fun () ->
                 ignore (Vector_exec.run_interpreter ~cores ~memory:reference ~machine p)));
          Alcotest.(check (option string)) (tag ^ " values-only") e
            (error (fun () ->
                 ignore (Slp_vm.Engine.vector_final_memory ~cores ~memory:values ~machine p)));
          Alcotest.(check bool) (tag ^ " timed memory") true (Memory.equal reference timed);
          Alcotest.(check bool) (tag ^ " values-only memory") true (Memory.equal reference values);
          if cores = 1 then
            Alcotest.(check (option string)) (tag ^ " timing-only") e
              (error (fun () -> ignore (Slp_vm.Engine.run_timing ~machine p))))
        [ 1; 2 ])
    cases

(* A contiguous vload or vstore that runs off its array raises the same
   [Trap.info] from the engine, which checks the whole pack at once and
   replays the per-lane checks on failure, as from the interpreter,
   which checks lane by lane: off a 1-D array at lane 2, off a rank-2
   row at lane 2, off the leading dimension, and through a two-term
   last subscript at lane 2. *)
let test_vector_trap_parity () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 8 ];
  Env.declare_array env "M" Types.F64 [ 3; 4 ];
  let lanes = 4 in
  let pack elem = List.init lanes elem in
  let i = Affine.var "i" in
  let shifted k = Affine.add i (Affine.const k) in
  let loop index v body =
    Visa.Loop { Visa.index; lo = Affine.const v; hi = Affine.const (v + 1); step = 1; body }
  in
  let trap_of f =
    match f () with
    | _ -> None
    | exception Slp_vm.Trap.Trap info -> Some info
  in
  List.iter
    (fun (what, i0, elems, (index, bound)) ->
      List.iter
        (fun (op, instrs) ->
          let prog =
            {
              Visa.name = "oob";
              env;
              setup = [];
              body = [ loop "j" 1 [ loop "i" i0 [ Visa.Block instrs ] ] ];
            }
          in
          let tag = Printf.sprintf "%s off %s" op what in
          let engine = trap_of (fun () -> Slp_vm.Engine.run_vector ~machine prog) in
          let interpreter = trap_of (fun () -> Vector_exec.run_interpreter ~machine prog) in
          (match engine with
          | Some { Slp_vm.Trap.kind = Slp_vm.Trap.Out_of_bounds o; _ } ->
              Alcotest.(check (pair int int)) (tag ^ ": index, bound") (index, bound)
                (o.index, o.bound)
          | _ -> Alcotest.failf "%s: expected an out-of-bounds trap" tag);
          Alcotest.(check bool) (tag ^ ": same trap") true (engine = interpreter))
        [
          ("vload", [ Visa.Vload { dst = 0; elems } ]);
          ( "vstore",
            [
              Visa.Vbroadcast { dst = 0; src = Visa.Imm 1.0; lanes };
              Visa.Vstore { src = 0; elems };
            ] );
        ])
    [
      ("a 1-D array", 6, pack (fun k -> Operand.Elem ("A", [ shifted k ])), (8, 8));
      ( "a rank-2 row",
        2,
        pack (fun k -> Operand.Elem ("M", [ Affine.const 1; shifted k ])),
        (4, 4) );
      ( "the leading dimension",
        3,
        pack (fun k -> Operand.Elem ("M", [ i; Affine.const k ])),
        (3, 3) );
      ( "a row through a two-term subscript",
        1,
        pack (fun k -> Operand.Elem ("M", [ Affine.const 1; Affine.make [ ("i", 1); ("j", 1) ] k ])),
        (4, 4) );
    ];
  (* A scalar statement's trap names the statement in both. *)
  let prog =
    Visa.of_program
      (Slp_frontend.Parser.parse ~name:"oob"
         "f64 A[8]; f64 B[8]; for i = 0 to 8 { A[i] = B[i + 1] * 2.0; }")
  in
  let engine = trap_of (fun () -> Slp_vm.Engine.run_vector ~machine prog) in
  let interpreter = trap_of (fun () -> Vector_exec.run_interpreter ~machine prog) in
  (match engine with
  | Some { Slp_vm.Trap.kind = Slp_vm.Trap.Out_of_bounds { index = 8; bound = 8 }; stmt = Some _; _ }
    -> ()
  | _ -> Alcotest.fail "sstmt: expected an out-of-bounds trap naming its statement");
  Alcotest.(check bool) "sstmt: same trap" true (engine = interpreter)

(* -- multicore ----------------------------------------------------------------- *)

let test_chunk_ranges () =
  Alcotest.(check (list (pair int int)))
    "even split"
    [ (0, 8); (8, 16) ]
    (Scalar_exec.chunk_ranges ~lo:0 ~hi:16 ~step:1 ~cores:2);
  Alcotest.(check (list (pair int int)))
    "uneven split favours early cores"
    [ (0, 6); (6, 11); (11, 16) ]
    (Scalar_exec.chunk_ranges ~lo:0 ~hi:16 ~step:1 ~cores:3);
  (* Step alignment. *)
  List.iter
    (fun (lo, _) ->
      Alcotest.(check int) "chunk start is step aligned" 0 ((lo - 1) mod 3))
    (Scalar_exec.chunk_ranges ~lo:1 ~hi:28 ~step:3 ~cores:4)

(* Property: for any loop bounds, [chunk_ranges] yields exactly
   [cores] step-aligned chunks whose in-order traversal visits exactly
   the indices of the whole loop, each once (disjointness, ordering
   and exact cover in one comparison). *)
let chunk_ranges_prop =
  QCheck.Test.make ~name:"chunk_ranges partitions [lo,hi) exactly" ~count:500
    QCheck.(
      quad (int_range (-50) 50) (int_range 0 300) (int_range 1 9) (int_range 1 16))
    (fun (lo, span, step, cores) ->
      let hi = lo + span in
      let ranges = Scalar_exec.chunk_ranges ~lo ~hi ~step ~cores in
      let visit (clo, chi) =
        let acc = ref [] in
        let i = ref clo in
        while !i < chi do
          acc := !i :: !acc;
          i := !i + step
        done;
        List.rev !acc
      in
      let whole = visit (lo, hi) in
      let chunked = List.concat_map visit ranges in
      if List.length ranges <> cores then
        QCheck.Test.fail_reportf "expected %d chunks, got %d" cores
          (List.length ranges);
      List.iter
        (fun (clo, _) ->
          if (clo - lo) mod step <> 0 then
            QCheck.Test.fail_reportf "chunk start %d not step-aligned (lo=%d step=%d)"
              clo lo step)
        ranges;
      if chunked <> whole then
        QCheck.Test.fail_reportf
          "chunked traversal differs (lo=%d hi=%d step=%d cores=%d): %d vs %d indices"
          lo hi step cores (List.length chunked) (List.length whole);
      true)

(* The Figure 21 experiment on real domains must be indistinguishable
   from the sequential simulation: same NAS kernels, 1/2/4/8 simulated
   cores, both machine models, comparing every counter bit-for-bit and
   the memory image bitwise.  The pool spawns three worker domains
   explicitly so the test exercises genuine cross-domain execution
   even on a single-processor host. *)
let test_fig21_domains_bitidentical () =
  let module Pipeline = Slp_pipeline.Pipeline in
  let module Suite = Slp_benchmarks.Suite in
  let pool = Slp_vm.Dpool.create ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Slp_vm.Dpool.shutdown pool)
    (fun () ->
      List.iter
        (fun (mach : Machine.t) ->
          List.iter
            (fun (b : Suite.t) ->
              let c =
                Pipeline.compile ~unroll:b.Suite.unroll ~verify:false
                  ~scheme:Pipeline.Global ~machine:mach (Suite.program b)
              in
              let vprog =
                match c.Pipeline.vector with
                | Some v -> v
                | None -> Alcotest.failf "%s: no vector program" b.Suite.name
              in
              let mem env =
                let m =
                  Memory.create ~scalar_layout:c.Pipeline.scalar_offsets ~env ()
                in
                Memory.init_arrays m ~seed:42;
                m
              in
              List.iter
                (fun cores ->
                  let ctx what =
                    Printf.sprintf "%s %s %dc %s" mach.Machine.name b.Suite.name
                      cores what
                  in
                  (* Vectorized program. *)
                  let seq =
                    Vector_exec.run ~cores ~seed:42 ~memory:(mem vprog.Visa.env)
                      ~machine:mach vprog
                  in
                  let par =
                    Vector_exec.run ~cores ~seed:42 ~memory:(mem vprog.Visa.env)
                      ~pool ~machine:mach vprog
                  in
                  Alcotest.(check bool)
                    (ctx "vector counters bit-identical")
                    true
                    (Counters.equal seq.Vector_exec.counters par.Vector_exec.counters);
                  Alcotest.(check bool)
                    (ctx "vector memory bit-identical")
                    true
                    (Memory.equal seq.Vector_exec.memory par.Vector_exec.memory);
                  (* Scalar reference program. *)
                  let sseq =
                    Scalar_exec.run ~cores ~seed:42 ~machine:mach
                      c.Pipeline.reference
                  in
                  let spar =
                    Scalar_exec.run ~cores ~seed:42 ~pool ~machine:mach
                      c.Pipeline.reference
                  in
                  Alcotest.(check bool)
                    (ctx "scalar counters bit-identical")
                    true
                    (Counters.equal sseq.Scalar_exec.counters
                       spar.Scalar_exec.counters);
                  Alcotest.(check bool)
                    (ctx "scalar memory bit-identical")
                    true
                    (Memory.equal sseq.Scalar_exec.memory spar.Scalar_exec.memory))
                [ 1; 2; 4; 8 ])
            Suite.nas)
        [ Machine.intel_dunnington; Machine.amd_phenom_ii ])

let test_multicore_work_conservation () =
  let prog =
    Slp_frontend.Parser.parse ~name:"mc"
      "f64 A[64];\nf64 B[64];\nfor i = 0 to 64 {\n  B[i] = A[i] * 2.0;\n}"
  in
  let r1 = Scalar_exec.run ~cores:1 ~machine prog in
  let r4 = Scalar_exec.run ~cores:4 ~machine prog in
  Alcotest.(check int) "same total work"
    (Counters.total_instructions r1.Scalar_exec.counters)
    (Counters.total_instructions r4.Scalar_exec.counters);
  Alcotest.(check bool) "parallel time is shorter" true
    (r4.Scalar_exec.counters.Counters.cycles < r1.Scalar_exec.counters.Counters.cycles);
  Alcotest.(check bool) "results identical" true
    (Memory.same_contents r1.Scalar_exec.memory r4.Scalar_exec.memory)

(* -- allocation and cache reuse ----------------------------------------------- *)

let global_compile name =
  let module Pipeline = Slp_pipeline.Pipeline in
  let module Suite = Slp_benchmarks.Suite in
  let b = Suite.find name in
  let c =
    Pipeline.compile ~unroll:b.Suite.unroll ~verify:false ~scheme:Pipeline.Global
      ~machine (Suite.program b)
  in
  match c.Pipeline.vector with
  | Some v -> (c.Pipeline.reference, c.Pipeline.scalar_offsets, v, c)
  | None -> Alcotest.failf "%s: no vector program" name

let initialized ?(scalar_layout = []) env =
  let m = Memory.create ~scalar_layout ~env () in
  Memory.init_arrays m ~seed:42;
  m

let memory_accesses (k : Counters.t) =
  k.Counters.scalar_loads + k.Counters.scalar_stores + k.Counters.vector_loads
  + k.Counters.vector_stores + k.Counters.pack_loads + k.Counters.pack_stores

(* Minor words of one engine run per simulated memory access, its
   memory built and initialized beforehand (a values-only or
   timing-only run builds its own).  Compiling the closures allocates in proportion to the
   program, which the budget covers; nothing may be allocated per
   access.  Every run is made once before it is measured, so a cache
   geometry this process has not created yet does not count.  A checked
   execute (vector run, values-only reference and the comparison of
   their memories) is held to the same budget over both runs'
   accesses. *)
let test_allocation_budget () =
  List.iter
    (fun name ->
      let reference, scalar_layout, vprog, compiled = global_compile name in
      let scalar_memory () = initialized reference.Program.env in
      let vector_memory () = initialized ~scalar_layout vprog.Visa.env in
      let scalar memory = Scalar_exec.run ~memory ~machine reference in
      let vector memory = Vector_exec.run ~memory ~machine vprog in
      let values () = Scalar_exec.final_memory ~machine reference in
      let timing () = Slp_vm.Engine.run_timing ~scalar_layout ~machine vprog in
      let scalar_accesses =
        memory_accesses (scalar (scalar_memory ())).Scalar_exec.counters
      in
      let vector_accesses =
        memory_accesses (vector (vector_memory ())).Vector_exec.counters
      in
      ignore (values ());
      ignore (timing ());
      let budget what ~accesses run =
        let before = Gc.minor_words () in
        ignore (run ());
        let words = Gc.minor_words () -. before in
        let per_access = words /. float_of_int accesses in
        if not (per_access < 0.1) then
          Alcotest.failf "%s, %s: %.0f minor words over %d accesses (%.3f per access)"
            name what words accesses per_access
      in
      let memory = scalar_memory () in
      budget "timed scalar run" ~accesses:scalar_accesses (fun () -> scalar memory);
      let memory = vector_memory () in
      budget "timed Global vector run" ~accesses:vector_accesses (fun () -> vector memory);
      budget "values-only reference" ~accesses:scalar_accesses values;
      budget "timing-only Global vector run" ~accesses:vector_accesses timing;
      budget "checked execute" ~accesses:(scalar_accesses + vector_accesses) (fun () ->
          Slp_pipeline.Pipeline.execute ~check:true compiled))
    [ "cactusADM"; "bt" ]

(* The Global+Layout arbitration times both variants of every suite
   kernel timing-only, at both 128-bit machines and Intel at 256 bits
   (60 probes): none may fall back to the timed engine, or the
   arbitration pays for values nothing reads. *)
let test_probes_timing_only () =
  let module Pipeline = Slp_pipeline.Pipeline in
  let module Suite = Slp_benchmarks.Suite in
  let before = Slp_vm.Engine.timing_fallbacks () in
  List.iter
    (fun machine ->
      List.iter
        (fun (b : Suite.t) ->
          let unroll = Suite.unroll_at b ~simd_bits:machine.Machine.simd_bits in
          ignore
            (Pipeline.compile ~unroll ~verify:false ~scheme:Pipeline.Global_layout ~machine
               (Suite.program b)))
        Suite.all)
    [ machine; Machine.amd_phenom_ii; Machine.with_simd_bits machine 256 ];
  Alcotest.(check int) "probes run on the timed engine" 0
    (Slp_vm.Engine.timing_fallbacks () - before)

(* A small hierarchy: L1 2 sets x 2 ways, L2 3 x 1, L3 1 x 2, with
   64-byte lines, so a kernel of a few lines reaches every level. *)
let small =
  let level sets ways latency =
    { Machine.size_bytes = sets * ways * 64; ways; line_bytes = 64; latency }
  in
  { machine with Machine.l1 = level 2 2 3; l2 = level 3 1 14; l3 = level 1 2 42 }

(* [prog] runs timed and timing-only with the counters of the
   interpreter (and, timed, its memory), and the two runs fast-forward
   [forwarded] iterations between them. *)
let check_fast_forward (tag, machine, prog, expected) =
  let ri = Scalar_exec.run_interpreter ~machine prog in
  let re = ref ri and rt = ref ri.Scalar_exec.counters in
  let n =
    forwarded (fun () ->
        re := Scalar_exec.run ~machine prog;
        rt := Slp_vm.Engine.run_timing ~machine (Visa.of_program prog))
  in
  Alcotest.check counters_t (tag ^ " timed") ri.Scalar_exec.counters !re.Scalar_exec.counters;
  Alcotest.check counters_t (tag ^ " timing-only") ri.Scalar_exec.counters !rt;
  Alcotest.(check bool) (tag ^ " memory") true
    (Memory.equal ri.Scalar_exec.memory !re.Scalar_exec.memory);
  Alcotest.(check int) (tag ^ " fast-forwarded") expected n

(* A repetition loop of [trips] (default 8) over [Z]'s lines, after
   one iteration of a loop over the lines [before].  [Z]'s base is 64,
   so [Z[8 * (k - 1)]] is line [k]. *)
let lines_kernel ?(trips = 8) ?(before = []) lines =
  let reads lines =
    String.concat "" (List.map (fun line -> Printf.sprintf "  s = Z[%d];\n" (8 * (line - 1))) lines)
  in
  Slp_frontend.Parser.parse ~name:"warm"
    ("f64 Z[96];\nf64 s;\n"
    ^ (if before = [] then "" else "for u = 0 to 1 {\n" ^ reads before ^ "}\n")
    ^ Printf.sprintf "for t = 0 to %d {\n" trips
    ^ reads lines ^ "}\n")

(* The cycles of iteration [k] of [kernel]'s repetition loop, by the
   interpreter. *)
let iteration ~machine kernel k =
  let cycles trips =
    (Scalar_exec.run_interpreter ~machine (kernel trips)).Scalar_exec.counters.Counters.cycles
  in
  cycles k -. cycles (k - 1)

(* [tight]'s five lines settle exactly at the fourth repetition on the
   small hierarchy: the third resolves them differently. *)
let tight trips = lines_kernel ~trips [ 11; 7; 4; 8; 5 ]

(* The fast-forward's warm-up needs up to L + 1 = 4 iterations, and
   that bound must stay.  On the small hierarchy [tight] needs all 4.
   On the Intel model, the 13 lines 256 KB apart of [pinned] share one
   L1 and one L2 set and need 3 (2 on the AMD model); a 2-iteration
   warm-up reads 5,399 cycles there instead of the interpreter's
   4,391.  The timed and
   timing-only runs fast-forward both, and their counters are the
   interpreter's. *)
let test_fast_forward_warm_up () =
  let iteration = iteration ~machine:small tight in
  Alcotest.(check bool) "iteration 3 differs from iteration 4" true (iteration 3 <> iteration 4);
  Alcotest.(check (float 0.0)) "iteration 5 is iteration 4" (iteration 4) (iteration 5);
  let pinned =
    let far k = Printf.sprintf "  s = Z[%d];\n" (32768 * k) in
    Slp_frontend.Parser.parse ~name:"warm"
      ("f64 Z[425984];\nf64 s;\nfor t = 0 to 8 {\n"
      ^ String.concat "" (List.init 6 far)
      ^ far 12
      ^ String.concat "" (List.init 6 (fun k -> far (k + 6) ^ far 12))
      ^ "}\n")
  in
  Alcotest.(check (float 0.0)) "pinned, Intel interpreter" 4391.0
    (Scalar_exec.run_interpreter ~machine pinned).Scalar_exec.counters.Counters.cycles;
  List.iter check_fast_forward
    [
      ("tight", small, tight 8, 8);
      ("pinned, Intel", machine, pinned, 10);
      ("pinned, AMD", Machine.amd_phenom_ii, pinned, 12);
    ]

(* The warm-up ends at the first steady iteration: iteration k (k <= L)
   is steady when it missed no line at level k, and every later one
   then charges what it charged.  On the small hierarchy, loops of 8
   trips whose warm-up ends after exactly k = 1, 2, 3 and 4
   iterations, so that the timed and the timing-only run each
   fast-forward 8 - k, and iteration k - 1 costs more than iteration k:
   - k = 1: a preceding loop left both lines in L1;
   - k = 2: a preceding loop left both lines in L2 but pushed them out
     of L1, so iteration 1 misses L1 and no L2 line (a rule that read
     level k + 1 would stop there);
   - k = 3: iteration 2 misses L2, iteration 3 misses no L3 line (a
     fixed 2-iteration warm-up would stop at 2, and one that repeated
     iteration k - 1's increments would charge iteration 2);
   - k = 4: [tight]. *)
let test_warm_up_ends_steady () =
  List.iter
    (fun (k, kernel) ->
      let tag = Printf.sprintf "k = %d" k in
      if k > 1 then
        Alcotest.(check bool)
          (tag ^ ": iteration k - 1 costs more")
          true
          (iteration ~machine:small kernel (k - 1) > iteration ~machine:small kernel k);
      check_fast_forward (tag, small, kernel 8, 2 * (8 - k)))
    [
      (1, fun trips -> lines_kernel ~trips ~before:[ 1; 2 ] [ 1; 2 ]);
      (2, fun trips -> lines_kernel ~trips ~before:[ 1; 2; 3; 9; 6; 12 ] [ 1; 2 ]);
      (3, fun trips -> lines_kernel ~trips [ 11; 5; 3 ]);
      (4, tight);
    ]

(* The iterations of a suite kernel's repetition loops ([t], inside [p]
   in the NAS kernels) past the first [warm] of each execution. *)
let past_warm_up ~warm (prog : Program.t) =
  let trips (l : Program.loop) =
    match (Affine.to_const l.Program.lo, Affine.to_const l.Program.hi) with
    | Some lo, Some hi -> (hi - lo) / l.Program.step
    | _ -> Alcotest.fail "suite loop bounds are constants"
  in
  let rec count outer = function
    | [] -> 0
    | Program.Stmts _ :: rest -> count outer rest
    | Program.Loop l :: rest ->
        (if l.Program.index = "t" then outer * (trips l - warm)
         else count (outer * trips l) l.Program.body)
        + count outer rest
  in
  count 1 prog.Program.body

(* Every suite kernel's repetition loop fast-forwards at Intel/AMD 128
   under every scheme, in the timed run and in the timing-only run:
   each of its executions simulates 2 iterations, the second of which
   misses no L2 line, and forwards the rest.  A profiled run simulates
   them all.  A change that loses the fast path fails here, not only
   in the benchmark. *)
let test_suite_fast_forwarded () =
  let module Pipeline = Slp_pipeline.Pipeline in
  let module Suite = Slp_benchmarks.Suite in
  List.iter
    (fun machine ->
      List.iter
        (fun (b : Suite.t) ->
          let prog = Suite.program b in
          let n = past_warm_up ~warm:2 prog in
          Alcotest.(check bool) (b.Suite.name ^ " has a repetition loop") true (n > 0);
          List.iter
            (fun scheme ->
              let c =
                Pipeline.compile ~unroll:b.Suite.unroll ~verify:false ~scheme ~machine prog
              in
              let tag what =
                Printf.sprintf "%s %s %s %s" b.Suite.name (Pipeline.scheme_name scheme)
                  (Machine.to_string machine) what
              in
              Alcotest.(check int) (tag "timed") n
                (forwarded (fun () -> ignore (Pipeline.execute ~check:false c)));
              Alcotest.(check int) (tag "timing-only") n
                (forwarded (fun () -> ignore (Pipeline.timing c)));
              Alcotest.(check int) (tag "profiled") 0
                (forwarded (fun () ->
                     ignore
                       (Pipeline.execute ~check:false
                          ~obs:(Slp_obs.Obs.create ~profile:true ())
                          c))))
            Pipeline.all_schemes)
        Suite.all)
    [ machine; Machine.amd_phenom_ii ]

(* Exactly the repetition loops of the seven suite kernels whose state
   is a fixed point after one repetition (cactusADM, milc, povray,
   calculix, namd, sp and mg) settle at Intel/AMD 128 under every
   scheme: each execution skips the values of all but its 2 warm-up
   iterations in the measured run, and of all but its first in the
   scalar reference, which a checked execute of a vector program adds.
   The other nine accumulate.  A profiled measured run settles
   nothing, and neither run of a two-core checked execute does.  A change that loses the skip, or that skips a loop which
   accumulates, fails here. *)
let test_suite_settled () =
  let module Pipeline = Slp_pipeline.Pipeline in
  let module Suite = Slp_benchmarks.Suite in
  let fixed = [ "cactusADM"; "milc"; "povray"; "calculix"; "namd"; "sp"; "mg" ] in
  List.iter
    (fun machine ->
      List.iter
        (fun (b : Suite.t) ->
          let prog = Suite.program b in
          let settles = List.mem b.Suite.name fixed in
          let expected warm = if settles then past_warm_up ~warm prog else 0 in
          List.iter
            (fun scheme ->
              let c =
                Pipeline.compile ~unroll:b.Suite.unroll ~verify:false ~scheme ~machine prog
              in
              let tag what =
                Printf.sprintf "%s %s %s %s" b.Suite.name (Pipeline.scheme_name scheme)
                  (Machine.to_string machine) what
              in
              let checked =
                expected 2 + if Option.is_some c.Pipeline.vector then expected 1 else 0
              in
              Alcotest.(check int) (tag "measured") (expected 2)
                (settled (fun () -> ignore (Pipeline.execute ~check:false c)));
              Alcotest.(check int) (tag "reference") (expected 1)
                (settled (fun () ->
                     ignore (Scalar_exec.final_memory ~machine c.Pipeline.reference)));
              Alcotest.(check int) (tag "checked") checked
                (settled (fun () -> ignore (Pipeline.execute ~check:true c)));
              Alcotest.(check int) (tag "profiled") 0
                (settled (fun () ->
                     ignore
                       (Pipeline.execute ~check:false
                          ~obs:(Slp_obs.Obs.create ~profile:true ())
                          c)));
              Alcotest.(check int) (tag "two cores") 0
                (settled (fun () -> ignore (Pipeline.execute ~cores:2 ~check:true c))))
            Pipeline.all_schemes)
        Suite.all)
    [ machine; Machine.amd_phenom_ii ]

(* The settle condition on the loops it must reject, and on some it
   admits.  Each kernel runs timed, values-only, and through a checked
   [Pipeline.execute] under Global; each hand-built vector program
   timed and values-only.  Every run ends as the interpreter's does,
   and settles as many iterations as listed (timed, values-only):
   none for a loop that reads its index as a value, accumulates into a
   scalar, reads an array it writes, reads a scalar written only in an
   inner loop that may not run, or reads a register or a spill slot
   before writing it. *)
let test_settle_condition () =
  let module Pipeline = Slp_pipeline.Pipeline in
  let parse = Slp_frontend.Parser.parse ~name:"settle" in
  let kernel (what, src, (timed_n, values_n)) =
    let prog = parse src in
    let ri = Scalar_exec.run_interpreter ~machine prog in
    let re = ref ri and values = ref ri.Scalar_exec.memory in
    Alcotest.(check int) (what ^ ": timed run settles") timed_n
      (settled (fun () -> re := Scalar_exec.run ~machine prog));
    Alcotest.(check int) (what ^ ": values-only run settles") values_n
      (settled (fun () -> values := Scalar_exec.final_memory ~machine prog));
    Alcotest.check counters_t (what ^ ": timed counters") ri.Scalar_exec.counters
      !re.Scalar_exec.counters;
    Alcotest.(check bool) (what ^ ": timed memory") true
      (Memory.equal ri.Scalar_exec.memory !re.Scalar_exec.memory);
    Alcotest.(check bool) (what ^ ": values-only memory") true
      (Memory.equal ri.Scalar_exec.memory !values);
    let c = Pipeline.compile ~unroll:2 ~verify:false ~scheme:Pipeline.Global ~machine prog in
    let r, memory = Pipeline.execute_with_memory ~check:true c in
    Alcotest.(check bool) (what ^ ": checked execute matches its reference") true
      r.Pipeline.correct;
    let reference =
      match c.Pipeline.vector with
      | None -> Scalar_exec.run_interpreter ~machine c.Pipeline.reference
      | Some vprog ->
          let m = Memory.create ~scalar_layout:c.Pipeline.scalar_offsets ~env:vprog.Visa.env () in
          Memory.init_arrays m ~seed:42;
          let r = Vector_exec.run_interpreter ~memory:m ~machine vprog in
          { Scalar_exec.counters = r.Vector_exec.counters; memory = r.Vector_exec.memory }
    in
    Alcotest.check counters_t (what ^ ": checked execute counters")
      reference.Scalar_exec.counters r.Pipeline.counters;
    Alcotest.(check bool) (what ^ ": checked execute memory") true
      (Memory.equal reference.Scalar_exec.memory memory);
    [ ri.Scalar_exec.memory; !re.Scalar_exec.memory; !values; memory ]
  in
  (* The index read as a value: every element ends at the last
     repetition's index, 7, in every run. *)
  List.iter
    (fun m ->
      Alcotest.(check (list (float 0.0))) "index as value: A[i] = 7" (List.init 64 (fun _ -> 7.0))
        (Float.Array.to_list (Memory.array_values m "A")))
    (kernel
       ( "index as value",
         "i64 A[64];\nfor t = 0 to 8 {\n  for i = 0 to 64 {\n    A[i] = t;\n  }\n}",
         (0, 0) ));
  List.iter
    (fun case -> ignore (kernel case : Memory.t list))
    [
      ( "scalar accumulator",
        "f64 A[64];\nf64 acc;\nfor t = 0 to 8 {\n  for i = 0 to 64 {\n\
        \    acc = acc + A[i] * A[i];\n  }\n}",
        (0, 0) );
      ( "array read after its own write",
        "f64 u[66];\nf64 flx[66];\nf64 unew[66];\nfor t = 0 to 8 {\n\
        \  for i = 1 to 65 {\n    flx[i] = 0.5 * (u[i+1] - u[i-1]);\n\
        \    unew[i] = u[i] - 0.3 * flx[i];\n  }\n}",
        (0, 0) );
      ( "scalar written only in a zero-trip loop",
        "f64 A[4];\nf64 B[4];\nf64 s;\nfor t = 0 to 8 {\n  for j = 0 to 0 {\n\
        \    s = A[j];\n  }\n  s = s + 1.0;\n  B[0] = s;\n}",
        (0, 0) );
      ( "scalar written only in a loop with non-constant bounds",
        "f64 A[4];\nf64 B[4];\nf64 s;\nfor p = 0 to 2 {\n  for t = 0 to 8 {\n\
        \    for j = p to 1 {\n      s = A[j];\n    }\n    s = s + 1.0;\n    B[p] = s;\n\
        \  }\n}",
        (0, 0) );
      ( "scalar written in a loop with constant bounds",
        "f64 A[4];\nf64 B[4];\nf64 s;\nfor t = 0 to 8 {\n  for j = 0 to 2 {\n\
        \    s = A[j];\n  }\n  s = s + 1.0;\n  B[0] = s;\n}",
        (6, 7) );
      ( "temporaries written before they are read",
        "f64 A[64];\nf64 B[64];\nf64 s;\nfor t = 0 to 8 {\n  for i = 0 to 64 {\n\
        \    s = A[i] * 2.0;\n    B[i] = s + 1.0;\n  }\n}",
        (6, 7) );
    ];
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 8 ];
  Env.declare_array env "B" Types.F64 [ 8 ];
  let pair a k = [ Operand.Elem (a, [ Affine.const k ]); Operand.Elem (a, [ Affine.const (k + 1) ]) ] in
  let prog prologue body =
    {
      Visa.name = "settle";
      env;
      setup = [];
      body =
        [
          Visa.Block prologue;
          Visa.Loop
            {
              Visa.index = "t";
              lo = Affine.const 0;
              hi = Affine.const 8;
              step = 1;
              body = [ Visa.Block body ];
            };
        ];
    }
  in
  let add dst a b = Visa.Vbin { dst; op = Types.Add; a; b } in
  List.iter
    (fun (what, p, (timed_n, values_n)) ->
      let fresh () =
        let m = Memory.create ~env () in
        Memory.init_arrays m ~seed:42;
        m
      in
      let ri = Vector_exec.run_interpreter ~memory:(fresh ()) ~machine p in
      let timed = fresh () and values = fresh () in
      let re = ref ri in
      Alcotest.(check int) (what ^ ": timed run settles") timed_n
        (settled (fun () -> re := Vector_exec.run ~memory:timed ~machine p));
      Alcotest.(check int) (what ^ ": values-only run settles") values_n
        (settled (fun () ->
             ignore (Slp_vm.Engine.vector_final_memory ~memory:values ~machine p)));
      Alcotest.check counters_t (what ^ ": timed counters") ri.Vector_exec.counters
        !re.Vector_exec.counters;
      Alcotest.(check bool) (what ^ ": timed memory") true
        (Memory.equal ri.Vector_exec.memory timed);
      Alcotest.(check bool) (what ^ ": values-only memory") true
        (Memory.equal ri.Vector_exec.memory values))
    [
      ( "register read before written",
        prog
          [ Visa.Vload { dst = 0; elems = pair "A" 0 }; Visa.Vload { dst = 1; elems = pair "A" 2 } ]
          [ add 1 1 0; Visa.Vstore { src = 1; elems = pair "B" 0 } ],
        (0, 0) );
      ( "spill slot read before written",
        prog
          [ Visa.Vload { dst = 0; elems = pair "A" 0 }; Visa.Vspill { src = 0; slot = 0 } ]
          [
            Visa.Vreload { dst = 1; slot = 0 };
            add 1 1 0;
            Visa.Vspill { src = 1; slot = 0 };
            Visa.Vstore { src = 1; elems = pair "B" 0 };
          ],
        (0, 0) );
      ( "register and spill slot written before read",
        prog []
          [
            Visa.Vload { dst = 0; elems = pair "A" 0 };
            add 1 0 0;
            Visa.Vspill { src = 1; slot = 0 };
            Visa.Vreload { dst = 2; slot = 0 };
            Visa.Vstore { src = 2; elems = pair "B" 0 };
          ],
        (6, 7) );
    ]

(* An armed fault in an iteration past the warm-up (mid-way through
   the 8th of 10) fires on the same access in the interpreter, in the
   timed engine, which runs that iteration values-only, and in a
   values-only run: the scalar and the vector program leave the same
   memory behind in each.  A timing-only run does not fast-forward
   while a fault is armed, so it fires too; armed past the last
   access, it returns the unarmed counters.  Armed after all but the
   last access every run fires, after all of them none does. *)
let test_fault_past_warm_up () =
  let module Pipeline = Slp_pipeline.Pipeline in
  let prog =
    Slp_frontend.Parser.parse ~name:"fault"
      "f64 A[64];\nf64 B[64];\nfor t = 0 to 10 {\n  for i = 0 to 8 {\n\
      \    B[i] = A[i] * 2.0 + B[i + 8];\n  }\n}"
  in
  let c = Pipeline.compile ~unroll:2 ~verify:false ~scheme:Pipeline.Global ~machine prog in
  let vprog = Option.get c.Pipeline.vector in
  let fresh env =
    let m = Memory.create ~scalar_layout:c.Pipeline.scalar_offsets ~env () in
    Memory.init_arrays m ~seed:42;
    m
  in
  let fired ~after f =
    match Slp_vm.Trap.with_fault ~fault:Slp_vm.Trap.Memory_fault ~after f with
    | () -> false
    | exception Slp_vm.Trap.Trap _ -> true
  in
  (* A scalar program runs values-only as its Visa image, on a given
     memory. *)
  let runs =
    [
      ( "scalar",
        prog.Program.env,
        (fun memory -> ignore (Scalar_exec.run_interpreter ~memory ~machine prog)),
        (fun memory -> ignore (Scalar_exec.run ~memory ~machine prog)),
        Visa.of_program prog,
        [] );
      ( "vector",
        vprog.Visa.env,
        (fun memory -> ignore (Vector_exec.run_interpreter ~memory ~machine vprog)),
        (fun memory -> ignore (Vector_exec.run ~memory ~machine vprog)),
        vprog,
        c.Pipeline.scalar_offsets );
    ]
  in
  List.iter
    (fun (what, env, interpreter, engine, visa, scalar_layout) ->
      let values memory = ignore (Slp_vm.Engine.vector_final_memory ~memory ~machine visa) in
      let timing () = Slp_vm.Engine.run_timing ~scalar_layout ~machine visa in
      let total = memory_accesses (timing ()) in
      let after = (total / 10 * 7) + (total / 20) in
      let reference = fresh env in
      Alcotest.(check bool) (what ^ ": interpreter fires") true
        (fired ~after (fun () -> interpreter reference));
      let timed = fresh env in
      Alcotest.(check int) (what ^ ": timed run fast-forwards while armed") 8
        (forwarded (fun () ->
             Alcotest.(check bool) (what ^ ": timed run fires") true
               (fired ~after (fun () -> engine timed))));
      Alcotest.(check bool) (what ^ ": timed run stops at the same access") true
        (Memory.equal reference timed);
      let m = fresh env in
      Alcotest.(check bool) (what ^ ": values-only run fires") true
        (fired ~after (fun () -> values m));
      Alcotest.(check bool) (what ^ ": values-only run stops at the same access") true
        (Memory.equal reference m);
      let armed = ref (Counters.create ()) in
      Alcotest.(check int) (what ^ ": timing-only run does not fast-forward while armed") 0
        (forwarded (fun () ->
             Alcotest.(check bool) (what ^ ": timing-only run fires") true
               (fired ~after (fun () -> ignore (timing ())));
             Alcotest.(check bool) (what ^ ": timing-only run armed past the end") false
               (fired ~after:total (fun () -> armed := timing ()))));
      Alcotest.check counters_t (what ^ ": armed past the end, same counters") (timing ())
        !armed;
      List.iter
        (fun (after, fires) ->
          let tag = Printf.sprintf "%s: fault after %d" what after in
          Alcotest.(check bool) (tag ^ ", interpreter") fires
            (fired ~after (fun () -> interpreter (fresh env)));
          Alcotest.(check bool) (tag ^ ", timed") fires
            (fired ~after (fun () -> engine (fresh env)));
          Alcotest.(check bool) (tag ^ ", values-only") fires
            (fired ~after (fun () -> values (fresh env)));
          Alcotest.(check bool) (tag ^ ", timing-only") fires
            (fired ~after (fun () -> ignore (timing ()))))
        [ (total - 1, true); (total, false) ])
    runs

(* Runs hand their caches on: kernel K, then L, then K again gives K's
   results bit for bit, at 1 and 2 cores.  A profiled run's observer
   stays with that run, and a run that traps partway (its caches are
   not released) leaves the next run alone. *)
let test_engine_cache_reuse () =
  let k = global_compile "bt" and l = global_compile "mg" in
  let vector ?profile ~cores (_, scalar_layout, vprog, _) =
    Vector_exec.run ~cores ?profile
      ~memory:(initialized ~scalar_layout vprog.Visa.env)
      ~machine vprog
  in
  let scalar ~cores (reference, _, _, _) = Scalar_exec.run ~cores ~machine reference in
  let same what (a : Scalar_exec.result) (b : Scalar_exec.result) =
    Alcotest.(check bool) (what ^ ": counters") true
      (Counters.equal a.Scalar_exec.counters b.Scalar_exec.counters);
    Alcotest.(check bool) (what ^ ": memory") true
      (Memory.equal a.Scalar_exec.memory b.Scalar_exec.memory)
  in
  let trap =
    Slp_frontend.Parser.parse ~name:"oob"
      "f64 A[4096];\nf64 B[4096];\nfor i = 0 to 4096 {\n  B[i] = A[i + 1] * 2.0;\n}"
  in
  List.iter
    (fun cores ->
      let tag what = Printf.sprintf "%s, %d core(s)" what cores in
      let kv = vector ~cores k and ks = scalar ~cores k in
      ignore (vector ~cores l);
      ignore (scalar ~cores l);
      same (tag "vector K after L") kv (vector ~cores k);
      same (tag "scalar K after L") ks (scalar ~cores k);
      (match Scalar_exec.run ~cores ~machine trap with
      | _ -> Alcotest.fail (tag "expected a trap")
      | exception Slp_vm.Trap.Trap _ -> ());
      same (tag "vector K after a trapped run") kv (vector ~cores k))
    [ 1; 2 ];
  let module Profile = Slp_obs.Profile in
  let p = Profile.create () in
  let profiled = vector ~profile:p ~cores:1 k in
  let observed () =
    List.fold_left
      (fun acc (_, (s : Profile.stat)) ->
        acc + s.Profile.memory_accesses + Array.fold_left ( + ) 0 s.Profile.level_hits)
      0 (Profile.arrays p)
  in
  let seen = observed () in
  Alcotest.(check bool) "profiled run observed" true (seen > 0);
  same "unprofiled after profiled" profiled (vector ~cores:1 k);
  Alcotest.(check int) "old observer not called" seen (observed ())

(* -- parcheck verdicts -------------------------------------------------------- *)

let parse_mc = Slp_frontend.Parser.parse

module Parcheck = Slp_vm.Parcheck

let show_reductions reductions =
  String.concat ","
    (List.map (fun (v, op) -> v ^ Slp_depend.Depend.op_string op) reductions)

let show_verdict = function
  | Parcheck.Serial reason -> "serial:" ^ reason
  | Parcheck.Parallel { reductions } -> "parallel:" ^ show_reductions reductions

(* The verdict and the reductions, without the reason text. *)
let verdict_key = function
  | Parcheck.Serial _ -> "serial"
  | Parcheck.Parallel { reductions } -> "parallel:" ^ show_reductions reductions

let scalar_verdict prog = Parcheck.analyze (Visa.of_program prog)

let check_verdict name src expected =
  let prog = parse_mc ~name src in
  Alcotest.(check string) name expected (show_verdict (scalar_verdict prog))

let test_parcheck_admits () =
  check_verdict "parity-disjoint offsets on one array"
    "f64 A[128];\nfor i = 0 to 32 {\n  A[2*i] = A[2*i+1];\n}" "parallel:";
  check_verdict "offset read of another array"
    "f64 A[128];\nf64 B[128];\nfor i = 0 to 64 {\n  A[i] = B[i+3];\n}"
    "parallel:";
  check_verdict "sum reduction"
    "f64 s;\nf64 A[64];\nfor i = 0 to 64 {\n  s = s + A[i];\n}" "parallel:s+";
  check_verdict "max reduction"
    "f64 m;\nf64 A[64];\nfor i = 0 to 64 {\n  m = max(m, A[i]);\n}"
    "parallel:mmax"

let test_parcheck_rejects () =
  check_verdict "loop-carried distance 1"
    "f64 A[128];\nfor i = 0 to 64 {\n  A[i+1] = A[i];\n}" "serial:par-array-dep:A";
  check_verdict "non-associative self-update"
    "f64 s;\nf64 A[64];\nfor i = 0 to 64 {\n  s = A[i] - s;\n}"
    "serial:par-scalar:s";
  check_verdict "statements outside the loop"
    "f64 x;\nf64 A[64];\nx = 1.0;\nfor i = 0 to 64 {\n  A[i] = x;\n}"
    "serial:par-shape"

module Pipeline = Slp_pipeline.Pipeline
module Suite = Slp_benchmarks.Suite

let machines = [ Machine.intel_dunnington; Machine.amd_phenom_ii ]

(* A temporary that updates itself after its first write is
   privatizable, beside a sum reduction: the reference and every
   scheme's vector code must get the same verdict, or a multicore run
   of the reference would add [s] up serially while the vector run
   merges per-core partial sums. *)
let test_parcheck_one_verdict () =
  let prog =
    parse_mc ~name:"temp_and_sum"
      "f64 s;\nf64 t;\nf64 A[64];\nf64 B[64];\nfor i = 0 to 64 {\n  t = A[i];\n\
      \  t = t * 2.0;\n  B[i] = t;\n  s = s + A[i];\n}"
  in
  List.iter
    (fun machine ->
      List.iter
        (fun scheme ->
          let c = Pipeline.compile ~scheme ~machine prog in
          let tag what =
            Printf.sprintf "%s %s %s" machine.Machine.name
              (Pipeline.scheme_name scheme) what
          in
          Alcotest.(check string) (tag "reference") "parallel:s+"
            (verdict_key (scalar_verdict c.Pipeline.reference));
          Option.iter
            (fun v ->
              Alcotest.(check string) (tag "vector code") "parallel:s+"
                (verdict_key (Parcheck.analyze v)))
            c.Pipeline.vector)
        Pipeline.all_schemes)
    machines

(* One hash per machine over the verdict and reductions of every
   suite kernel's reference and vector program, every scheme, at the
   suite's unroll.  A changed hash means a multicore run now
   privatizes or merges differently.  The reason text is left out: it
   names only the first conflict the walk meets.  Both machines are
   128-bit and their programs get the same verdicts, so the two
   hashes coincide. *)
let test_parcheck_suite_pinned () =
  List.iter
    (fun (machine, expected) ->
      let fields =
        List.concat_map
          (fun (k : Suite.t) ->
            let prog = Suite.program k in
            List.concat_map
              (fun scheme ->
                let c =
                  Pipeline.compile ~unroll:k.Suite.unroll ~verify:false ~scheme
                    ~machine prog
                in
                [
                  k.Suite.name;
                  Pipeline.scheme_name scheme;
                  verdict_key (scalar_verdict c.Pipeline.reference);
                  (match c.Pipeline.vector with
                  | Some v -> verdict_key (Parcheck.analyze v)
                  | None -> "-");
                ])
              Pipeline.all_schemes)
          Suite.all
      in
      Alcotest.(check string) machine.Machine.name expected
        (Slp_util.Fnv.to_hex (Slp_util.Fnv.hash_fields fields)))
    [
      (Machine.intel_dunnington, "fed97be35eeb3ca7");
      (Machine.amd_phenom_ii, "fed97be35eeb3ca7");
    ]

(* -- def/use pins ------------------------------------------------------- *)

(* The suite's machines: both 128-bit models and Figure 18's Intel
   model at 256 and 512 bits, with the suite unroll scaled by width as
   the benchmarks scale it. *)
let pinned_machines =
  let intel = Machine.intel_dunnington in
  [
    ("intel128", intel);
    ("amd128", Machine.amd_phenom_ii);
    ("intel256", Machine.with_simd_bits intel 256);
    ("intel512", Machine.with_simd_bits intel 512);
  ]

let suite_compile ~scheme ~machine (k : Suite.t) =
  let unroll = Suite.unroll_at k ~simd_bits:machine.Machine.simd_bits in
  Pipeline.compile ~unroll ~verify:false ~scheme ~machine (Suite.program k)

let pin_check name expected fields =
  Alcotest.(check string) name expected (Slp_util.Fnv.to_hex (Slp_util.Fnv.hash_fields fields))

(* The verdict with its reason text, which names the first conflict
   the analysis meets (so "suite verdicts pinned", which leaves it
   out, cannot see a reordered search): every suite reference and
   vector program on the four machines, and the first 300 programs of
   the seed-42 fuzz campaign as generated and under every scheme on
   Intel, reference and vector code. *)
let test_parcheck_reasons_pinned () =
  let show_vector = function Some v -> show_verdict (Parcheck.analyze v) | None -> "-" in
  List.iter2
    (fun (tag, machine) expected ->
      pin_check tag expected
        (List.concat_map
           (fun (k : Suite.t) ->
             List.concat_map
               (fun scheme ->
                 let c = suite_compile ~scheme ~machine k in
                 [
                   k.Suite.name;
                   Pipeline.scheme_name scheme;
                   show_verdict (scalar_verdict c.Pipeline.reference);
                   show_vector c.Pipeline.vector;
                 ])
               Pipeline.all_schemes)
           Suite.all))
    pinned_machines
    [ "68ee5b3b24aea7d4"; "68ee5b3b24aea7d4"; "68ee5b3b24aea7d4"; "68ee5b3b24aea7d4" ];
  let module Harness = Slp_fuzz.Harness in
  let config = Harness.default_config in
  pin_check "fuzz seed 42" "e8d08159d91d1d20"
    (List.concat_map
       (fun i ->
         let p = Harness.case_program config i in
         show_verdict (scalar_verdict p)
         :: List.concat_map
              (fun scheme ->
                match
                  Pipeline.compile ~verify:false ~options:Slp_fuzz.Oracle.options ~scheme
                    ~machine:Machine.intel_dunnington p
                with
                | c ->
                    [ show_verdict (scalar_verdict c.Pipeline.reference); show_vector c.Pipeline.vector ]
                | exception e -> [ Printexc.to_string e ])
              Pipeline.all_schemes)
       (List.init 300 Fun.id))

(* Every suite job's Visa text and one-core checked-execute result,
   on the four machines and under Global on a 2-register Intel, where
   the allocator spills, in two hashes per machine: (a) the Visa text,
   the counters (cycles bit for bit) and the check's verdict, which no
   change to how runs skip work may move; (b) how many iterations the
   runs fast-forwarded and settled, which only such a change moves.
   Every (a) hash is checked before any (b) hash. *)
let test_suite_runs_pinned () =
  let counter_fields (c : Counters.t) =
    List.map string_of_int
      Counters.
        [
          c.scalar_ops; c.vector_ops; c.scalar_loads; c.scalar_stores; c.vector_loads;
          c.vector_stores; c.pack_loads; c.pack_stores; c.inserts; c.extracts; c.permutes;
          c.broadcasts;
        ]
    @ [ Printf.sprintf "%h" c.Counters.cycles; Printf.sprintf "%h" c.Counters.setup_cycles ]
  in
  let job ~scheme ~machine k =
    let c = suite_compile ~scheme ~machine k in
    let f0 = Slp_vm.Engine.forwarded_iterations () in
    let s0 = Slp_vm.Engine.settled_iterations () in
    let r = Pipeline.execute ~check:true c in
    let tag = [ k.Suite.name; Pipeline.scheme_name scheme ] in
    ( tag
      @ [
          (match c.Pipeline.vector with
          | Some v -> Format.asprintf "%a" Visa.pp_program v
          | None -> "-");
          string_of_bool r.Pipeline.correct;
        ]
      @ counter_fields r.Pipeline.counters,
      tag
      @ [
          string_of_int (Slp_vm.Engine.forwarded_iterations () - f0);
          string_of_int (Slp_vm.Engine.settled_iterations () - s0);
        ] )
  in
  let suite ~schemes ~machine =
    List.split
      (List.concat_map (fun k -> List.map (fun scheme -> job ~scheme ~machine k) schemes) Suite.all)
  in
  let two = { Machine.intel_dunnington with Machine.vector_registers = 2 } in
  Alcotest.(check bool) "the 2-register allocator spills" true
    (List.exists
       (fun k ->
         (suite_compile ~scheme:Pipeline.Global ~machine:two k).Pipeline.spill_stats
           .Slp_codegen.Regalloc.spills > 0)
       Suite.all);
  let runs =
    List.map
      (fun (tag, machine) -> (tag, suite ~schemes:Pipeline.all_schemes ~machine))
      pinned_machines
    @ [ ("global on 2 registers", suite ~schemes:[ Pipeline.Global ] ~machine:two) ]
  in
  List.iter2
    (fun (tag, (results, _)) expected ->
      pin_check (tag ^ ", code and results") expected (List.concat results))
    runs
    [ "14e01ceaaadd1653"; "2033b5b515f201c7"; "014ae97eb6a03fc4"; "3c496682e9435cf1";
      "a3afed4ca8bc2f5e" ];
  List.iter2
    (fun (tag, (_, skips)) expected ->
      pin_check (tag ^ ", skipped iterations") expected (List.concat skips))
    runs
    [ "d1f816980da3b516"; "d1f816980da3b516"; "d1f816980da3b516"; "d1f816980da3b516";
      "083cf405193191db" ]

(* Every suite kernel's profile ([Profile.to_json]: cycles and cache
   accesses per statement, pack and array) under Global and
   Global+Layout, at one and two cores, on Intel/AMD 128.  Profiled
   and multicore runs simulate every access, so no change to the
   fast-forward or the settle skip may move these. *)
let test_suite_profiles_pinned () =
  List.iter2
    (fun machine expected ->
      pin_check (Machine.to_string machine) expected
        (List.concat_map
           (fun (k : Suite.t) ->
             List.concat_map
               (fun scheme ->
                 let c = suite_compile ~scheme ~machine k in
                 List.concat_map
                   (fun cores ->
                     let obs = Slp_obs.Obs.create ~profile:true () in
                     ignore (Pipeline.execute ~cores ~check:false ~obs c);
                     [
                       k.Suite.name;
                       Pipeline.scheme_name scheme;
                       string_of_int cores;
                       Slp_obs.Json.to_string
                         (Slp_obs.Profile.to_json (Option.get obs.Slp_obs.Obs.profile));
                     ])
                   [ 1; 2 ])
               [ Pipeline.Global; Pipeline.Global_layout ])
           Suite.all))
    machines [ "378106f52b3fc87b"; "28c1d8203193a70e" ]

let () =
  Alcotest.run "vm"
    [
      ( "memory",
        [
          Alcotest.test_case "address layout" `Quick test_memory_layout;
          Alcotest.test_case "scalar layout" `Quick test_memory_scalar_layout;
          Alcotest.test_case "values" `Quick test_memory_values;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "associativity eviction" `Quick test_cache_associativity_eviction;
          Alcotest.test_case "line straddling" `Quick test_cache_straddling;
          Alcotest.test_case "contention" `Quick test_cache_contention;
          Alcotest.test_case "released hierarchy reused empty" `Quick test_cache_reuse;
          Seeded.to_alcotest cache_settles;
          Seeded.to_alcotest cache_steady_rule;
        ] );
      ("counters", [ Alcotest.test_case "categories" `Quick test_counters ]);
      ( "engine runs",
        [
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
          Alcotest.test_case "arbitration probes run timing-only" `Quick
            test_probes_timing_only;
          Alcotest.test_case "caches reused across runs" `Quick test_engine_cache_reuse;
          Alcotest.test_case "fast-forward warms up L + 1 iterations" `Quick
            test_fast_forward_warm_up;
          Alcotest.test_case "warm-up ends at the first steady iteration" `Quick
            test_warm_up_ends_steady;
          Alcotest.test_case "every suite repetition loop fast-forwarded" `Quick
            test_suite_fast_forwarded;
          Alcotest.test_case "a fault past the warm-up fires on the same access" `Quick
            test_fault_past_warm_up;
          Alcotest.test_case "exactly the fixed-point repetition loops settle" `Quick
            test_suite_settled;
          Alcotest.test_case "the settle condition" `Quick test_settle_condition;
        ] );
      ( "scalar_exec",
        [
          Alcotest.test_case "values and counts" `Quick test_scalar_exec_values;
          Alcotest.test_case "index as value" `Quick test_scalar_exec_index_as_value;
          Alcotest.test_case "values-only trap parity" `Quick test_values_only_trap_parity;
        ] );
      ( "vector_exec",
        [
          Alcotest.test_case "ISA roundtrip" `Quick test_vector_isa_roundtrip;
          Alcotest.test_case "uninitialised register" `Quick test_vector_reads_before_write_fail;
          Alcotest.test_case "lane proof reaches every loop state" `Quick
            test_lane_proof_fixpoint;
          Alcotest.test_case "contiguous trap parity" `Quick test_vector_trap_parity;
          Alcotest.test_case "values-only trap parity" `Quick test_vector_values_only_parity;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "chunk ranges" `Quick test_chunk_ranges;
          Seeded.to_alcotest chunk_ranges_prop;
          Alcotest.test_case "work conservation" `Quick test_multicore_work_conservation;
          Alcotest.test_case "fig21 domains bit-identical" `Quick
            test_fig21_domains_bitidentical;
        ] );
      ( "parcheck",
        [
          Alcotest.test_case "admitted kernels" `Quick test_parcheck_admits;
          Alcotest.test_case "rejected kernels" `Quick test_parcheck_rejects;
          Alcotest.test_case "kernel and vector code agree" `Quick
            test_parcheck_one_verdict;
          Alcotest.test_case "suite verdicts pinned" `Quick
            test_parcheck_suite_pinned;
          Alcotest.test_case "verdicts and reasons pinned" `Slow
            test_parcheck_reasons_pinned;
        ] );
      ( "def/use",
        [
          Alcotest.test_case "suite code and runs pinned" `Slow test_suite_runs_pinned;
          Alcotest.test_case "suite profiles pinned" `Slow test_suite_profiles_pinned;
        ] );
    ]
