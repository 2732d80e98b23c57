(* Differential fuzzing: random straight-line loop kernels are compiled
   under every scheme and executed; the vectorized memory state must
   equal scalar execution bit for bit.  Any mismatch is a real compiler
   bug (grouping, scheduling, layout or codegen). *)

open Slp_ir
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine

let array_names = [ "A"; "B"; "C" ]
let scalar_names = [ "s0"; "s1"; "t0"; "t1"; "t2" ]
let array_size = 256

(* [M] is rank 2, one row per iteration of the outer [t] loop, shaped
   like the NAS kernels' [X[p][i]]. *)
let matrix_rows = 3

let gen_env () =
  let env = Env.create () in
  List.iter (fun a -> Env.declare_array env a Types.F64 [ array_size ]) array_names;
  Env.declare_array env "M" Types.F64 [ matrix_rows; array_size ];
  List.iter (fun v -> Env.declare_scalar env v Types.F64) scalar_names;
  env

(* Subscripts stay in bounds for i in [2, 120): coeff in {1,2}, offset
   in [-2, 4] gives indices within [0, 244]. *)
let gen_subscript =
  QCheck.Gen.(
    map2
      (fun coeff offset -> Affine.make [ ("i", coeff) ] offset)
      (int_range 1 2) (int_range (-2) 4))

(* An element of a rank-1 array, or of [M] with the row [t] or a
   constant row.  Unrolling [i] shifts only the last subscript, so
   adjacent [M] lanes pack contiguously along a row.  An [M] column
   may also add [t] (two loop terms, still within [0, 246]). *)
let gen_elem =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun a ix -> Operand.Elem (a, [ ix ])) (oneofl array_names) gen_subscript);
        ( 1,
          map3
            (fun row ix skew ->
              Operand.Elem ("M", [ row; (if skew then Affine.add ix (Affine.var "t") else ix) ]))
            (oneof [ return (Affine.var "t"); map Affine.const (int_bound (matrix_rows - 1)) ])
            gen_subscript bool );
      ])

let gen_operand =
  QCheck.Gen.(
    frequency
      [
        (3, gen_elem);
        (2, map (fun v -> Operand.Scalar v) (oneofl scalar_names));
        (1, map (fun f -> Operand.Const (Float.of_int f /. 8.0)) (int_range (-16) 16));
      ])

let gen_expr =
  QCheck.Gen.(
    sized_size (int_bound 2) @@ fix (fun self n ->
        if n = 0 then map (fun op -> Expr.Leaf op) gen_operand
        else
          frequency
            [
              (1, map (fun op -> Expr.Leaf op) gen_operand);
              ( 3,
                map3
                  (fun op l r -> Expr.Bin (op, l, r))
                  (oneofl [ Types.Add; Types.Sub; Types.Mul; Types.Min; Types.Max ])
                  (self (n / 2))
                  (self (n / 2)) );
              ( 1,
                map2
                  (fun op e -> Expr.Un (op, e))
                  (oneofl [ Types.Neg; Types.Abs ])
                  (self (n - 1)) );
            ]))

let gen_lhs =
  QCheck.Gen.(
    frequency
      [
        (3, gen_elem);
        (1, map (fun v -> Operand.Scalar v) (oneofl [ "t0"; "t1"; "t2" ]));
      ])

let gen_program =
  QCheck.Gen.(
    map
      (fun stmts ->
        let env = gen_env () in
        let block =
          Block.make ~label:"fuzz"
            (List.mapi (fun k (lhs, rhs) -> Stmt.make ~id:(k + 1) ~lhs ~rhs) stmts)
        in
        Program.make ~name:"fuzz" ~env
          [
            Program.loop "t" ~lo:(Affine.const 0) ~hi:(Affine.const matrix_rows)
              [
                Program.loop "i" ~lo:(Affine.const 2) ~hi:(Affine.const 120)
                  [ Program.Stmts block ];
              ];
          ])
      (list_size (int_range 3 8) (pair gen_lhs gen_expr)))

let arb_program =
  QCheck.make ~print:(fun p -> Program.to_string p) gen_program

(* A generated program inside a repetition loop of 5-12 trips whose
   index no subscript mentions, so one-core timed and timing-only runs
   fast-forward it past its warm-up. *)
let arb_repeated =
  QCheck.make ~print:(fun p -> Program.to_string p)
    QCheck.Gen.(
      map2
        (fun (p : Program.t) trips ->
          Program.make ~name:p.Program.name ~env:p.Program.env
            [ Program.loop "rep" ~lo:(Affine.const 0) ~hi:(Affine.const trips) p.Program.body ])
        gen_program (int_range 5 12))

let check_scheme ?options ?(machine = Machine.intel_dunnington) scheme p =
  match Program.validate p with
  | Error _ -> true (* generator hit a validation corner; skip *)
  | Ok () -> begin
      match Pipeline.compile ~unroll:2 ?options ~scheme ~machine p with
      | exception Invalid_argument msg -> QCheck.Test.fail_reportf "compile raised: %s" msg
      | compiled -> begin
          match Pipeline.execute compiled with
          | exception Invalid_argument msg ->
              QCheck.Test.fail_reportf "execute raised: %s" msg
          | r -> r.Pipeline.correct
        end
    end

let fuzz ?options ?machine scheme name =
  QCheck.Test.make ~name ~count:40 arb_program
    (check_scheme ?options ?machine scheme)

(* -- compiled engine vs reference interpreters --------------------------------

   The closure-compiled engine (Slp_vm.Engine) must be observationally
   identical to the tree-walking interpreters: memory, counters and
   cycles bit for bit ([Memory.equal], [Counters.equal]), since the
   engine replays the exact charge and cache access order. *)

module Vm = Slp_vm

let report_divergence what p ci ce =
  QCheck.Test.fail_reportf
    "engine diverges from %s:\n%s\ninterpreter: %s\nengine:      %s" what
    (Program.to_string p)
    (Format.asprintf "%a" Vm.Counters.pp ci)
    (Format.asprintf "%a" Vm.Counters.pp ce)

let engine_scalar_agrees ?(cores = 1) p =
  match Program.validate p with
  | Error _ -> true
  | Ok () ->
      let machine = Machine.intel_dunnington in
      let ri = Vm.Scalar_exec.run_interpreter ~cores ~machine p in
      let re = Vm.Engine.run_scalar ~cores ~machine p in
      let ci = ri.Vm.Scalar_exec.counters and ce = re.Vm.Engine.counters in
      Vm.Memory.equal ri.Vm.Scalar_exec.memory re.Vm.Engine.memory
      && Vm.Counters.equal ci ce
      || report_divergence "scalar interpreter" p ci ce

let engine_vector_agrees ?(cores = 1) ?(machine = Machine.intel_dunnington) scheme p
    =
  match Program.validate p with
  | Error _ -> true
  | Ok () -> begin
      match Pipeline.compile ~unroll:2 ~scheme ~machine p with
      | exception Invalid_argument _ -> true (* compile bugs belong to fuzz above *)
      | c -> begin
          match c.Pipeline.vector with
          | None -> true
          | Some vprog ->
              let mk () =
                let m =
                  Vm.Memory.create ~scalar_layout:c.Pipeline.scalar_offsets
                    ~env:vprog.Vm.Visa.env ()
                in
                Vm.Memory.init_arrays m ~seed:42;
                m
              in
              let ri =
                Vm.Vector_exec.run_interpreter ~cores ~memory:(mk ()) ~machine vprog
              in
              let re = Vm.Engine.run_vector ~cores ~memory:(mk ()) ~machine vprog in
              let ci = ri.Vm.Vector_exec.counters and ce = re.Vm.Engine.counters in
              Vm.Memory.equal ri.Vm.Vector_exec.memory re.Vm.Engine.memory
              && Vm.Counters.equal ci ce
              || report_divergence "vector interpreter" p ci ce
        end
    end

let engine_fuzz name check = QCheck.Test.make ~name ~count:40 arb_repeated check

(* Every Suite.all kernel, scalar and vectorized, single- and multicore,
   on both machines: engine and interpreter must agree exactly, and a
   one-core values-only run must leave the interpreter's memory. *)
let counters_testable =
  Alcotest.testable Vm.Counters.pp Vm.Counters.equal

let test_engine_on_suite () =
  let module Suite = Slp_benchmarks.Suite in
  List.iter
    (fun machine ->
      List.iter
        (fun b ->
          let name = Printf.sprintf "%s %s" b.Suite.name (Machine.to_string machine) in
          let prog = Suite.program b in
          List.iter
            (fun cores ->
              let tag = Printf.sprintf "%s scalar %dc" name cores in
              let ri = Vm.Scalar_exec.run_interpreter ~cores ~machine prog in
              let re = Vm.Engine.run_scalar ~cores ~machine prog in
              Alcotest.(check bool)
                (tag ^ " memory") true
                (Vm.Memory.equal ri.Vm.Scalar_exec.memory re.Vm.Engine.memory);
              Alcotest.check counters_testable (tag ^ " counters")
                ri.Vm.Scalar_exec.counters re.Vm.Engine.counters;
              if cores = 1 then
                Alcotest.(check bool)
                  (tag ^ " values-only memory") true
                  (Vm.Memory.equal ri.Vm.Scalar_exec.memory
                     (Vm.Engine.scalar_final_memory ~machine prog)))
            [ 1; 4 ];
          List.iter
            (fun (sname, scheme) ->
              let c = Pipeline.compile ~unroll:b.Suite.unroll ~scheme ~machine prog in
              match c.Pipeline.vector with
              | None -> ()
              | Some vprog ->
                  let mk () =
                    let m =
                      Vm.Memory.create ~scalar_layout:c.Pipeline.scalar_offsets
                        ~env:vprog.Vm.Visa.env ()
                    in
                    Vm.Memory.init_arrays m ~seed:42;
                    m
                  in
                  List.iter
                    (fun cores ->
                      let tag = Printf.sprintf "%s %s %dc" name sname cores in
                      let ri =
                        Vm.Vector_exec.run_interpreter ~cores ~memory:(mk ()) ~machine vprog
                      in
                      let re = Vm.Engine.run_vector ~cores ~memory:(mk ()) ~machine vprog in
                      Alcotest.(check bool)
                        (tag ^ " memory") true
                        (Vm.Memory.equal ri.Vm.Vector_exec.memory re.Vm.Engine.memory);
                      Alcotest.check counters_testable (tag ^ " counters")
                        ri.Vm.Vector_exec.counters re.Vm.Engine.counters;
                      if cores = 1 then
                        Alcotest.(check bool)
                          (tag ^ " values-only memory") true
                          (Vm.Memory.equal ri.Vm.Vector_exec.memory
                             (Vm.Engine.vector_final_memory ~memory:(mk ()) ~machine vprog)))
                    [ 1; 4 ])
            [ ("global", Pipeline.Global); ("layout", Pipeline.Global_layout) ])
        Suite.all)
    [ Machine.intel_dunnington; Machine.amd_phenom_ii ]

(* The kernels of examples/kernels, parsed: found from the test's
   build directory under dune, or from the checkout's root. *)
let example_kernels () =
  let dir = List.find Sys.file_exists [ "../examples/kernels"; "examples/kernels" ] in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".kern")
  |> List.sort compare
  |> List.map (fun f -> (f, Slp_frontend.Parser.parse_file (Filename.concat dir f)))

(* Every example kernel under the three holistic schemes at one core:
   the measured run, a checked execute's values-only scalar reference
   and the reference run timed leave the interpreters' memory, and the
   measured run counts what the interpreter counts. *)
let test_engine_on_examples () =
  let machine = Machine.intel_dunnington in
  List.iter
    (fun (file, prog) ->
      List.iter
        (fun scheme ->
          let tag = Printf.sprintf "%s %s" file (Pipeline.scheme_name scheme) in
          let c = Pipeline.compile ~scheme ~machine prog in
          let r, memory = Pipeline.execute_with_memory ~cores:1 ~check:true c in
          Alcotest.(check bool) (tag ^ " matches its scalar reference") true r.Pipeline.correct;
          let reference = c.Pipeline.reference in
          let ri = Vm.Scalar_exec.run_interpreter ~machine reference in
          Alcotest.(check bool)
            (tag ^ " values-only reference memory") true
            (Vm.Memory.equal ri.Vm.Scalar_exec.memory
               (Vm.Scalar_exec.final_memory ~machine reference));
          Alcotest.(check bool)
            (tag ^ " timed reference memory") true
            (Vm.Memory.equal ri.Vm.Scalar_exec.memory
               (Vm.Scalar_exec.run ~machine reference).Vm.Scalar_exec.memory);
          match c.Pipeline.vector with
          | None -> Alcotest.failf "%s: no vector program" tag
          | Some vprog ->
              let m =
                Vm.Memory.create ~scalar_layout:c.Pipeline.scalar_offsets
                  ~env:vprog.Vm.Visa.env ()
              in
              Vm.Memory.init_arrays m ~seed:42;
              let rv = Vm.Vector_exec.run_interpreter ~memory:m ~machine vprog in
              Alcotest.(check bool)
                (tag ^ " measured memory") true
                (Vm.Memory.equal rv.Vm.Vector_exec.memory memory);
              Alcotest.check counters_testable (tag ^ " measured counters")
                rv.Vm.Vector_exec.counters r.Pipeline.counters)
        [ Pipeline.Global; Pipeline.Global_layout; Pipeline.Optimal ])
    (example_kernels ())

(* -- values-only vs timed runs ------------------------------------------------

   The scalar-reference check runs values only: no cache, counters or
   cycles, and so does a one-core timed run past a replaying loop's
   warm-up.  A values-only run's final memory, arrays and scalars,
   must equal a timed run's bit for bit at every core count, for
   scalar and vector programs.  At one core the engine's timed and
   values-only runs both skip the iterations of a loop that settles,
   so neither can vouch for the other: the timed run there is the
   interpreter's.  At more cores no engine run skips an iteration, and
   the timed engine, held to the interpreters by "engine vs
   interpreter", is several times faster. *)

let values_only_agrees ?(machine = Machine.intel_dunnington) ~cores p =
  Vm.Memory.equal
    (if cores = 1 then (Vm.Scalar_exec.run_interpreter ~machine p).Vm.Scalar_exec.memory
     else (Vm.Scalar_exec.run ~cores ~machine p).Vm.Scalar_exec.memory)
    (Vm.Scalar_exec.final_memory ~cores ~machine p)

let vector_values_only_agrees ~machine ~cores (c : Pipeline.compiled) =
  match c.Pipeline.vector with
  | None -> true
  | Some vprog ->
      let fresh () =
        let m =
          Vm.Memory.create ~scalar_layout:c.Pipeline.scalar_offsets ~env:vprog.Vm.Visa.env ()
        in
        Vm.Memory.init_arrays m ~seed:42;
        m
      in
      let timed = fresh () and values = fresh () in
      if cores = 1 then ignore (Vm.Vector_exec.run_interpreter ~memory:timed ~machine vprog)
      else ignore (Vm.Vector_exec.run ~cores ~memory:timed ~machine vprog);
      ignore (Vm.Engine.vector_final_memory ~cores ~memory:values ~machine vprog);
      Vm.Memory.equal timed values

(* Every scheme's vector program on Intel, and Global's on a
   2-register Intel (spills and reloads). *)
let vector_values_only_fuzz =
  let intel = Machine.intel_dunnington in
  QCheck.Test.make ~name:"vector values-only memory matches the timed run on 1, 2, 4 cores"
    ~count:40 arb_repeated (fun p ->
      match Program.validate p with
      | Error _ -> true
      | Ok () ->
          List.for_all
            (fun (machine, scheme) ->
              let c = Pipeline.compile ~unroll:2 ~verify:false ~scheme ~machine p in
              List.for_all
                (fun cores ->
                  vector_values_only_agrees ~machine ~cores c
                  || QCheck.Test.fail_reportf
                       "%s, %d registers, %d cores: values-only run diverges:\n%s"
                       (Pipeline.scheme_name scheme) machine.Machine.vector_registers cores
                       (Program.to_string p))
                [ 1; 2; 4 ])
            ((({ intel with Machine.vector_registers = 2 }, Pipeline.Global))
            :: List.map (fun scheme -> (intel, scheme)) Pipeline.all_schemes))

let values_only_fuzz =
  QCheck.Test.make ~name:"values-only memory matches the timed run on 1, 2, 4 cores"
    ~count:40 arb_repeated (fun p ->
      match Program.validate p with
      | Error _ -> true
      | Ok () ->
          List.for_all
            (fun cores ->
              values_only_agrees ~cores p
              || QCheck.Test.fail_reportf "values-only run diverges at %d cores:\n%s"
                   cores (Program.to_string p))
            [ 1; 2; 4 ])

(* Every suite kernel, as written and as the pipeline prepares it
   (folded and unrolled), and every scheme's vector program, on both
   machines at 1, 2 and 4 cores. *)
let test_values_only_on_suite () =
  let module Suite = Slp_benchmarks.Suite in
  List.iter
    (fun b ->
      let prog = Suite.program b in
      List.iter
        (fun machine ->
          List.iter
            (fun scheme ->
              let c = Pipeline.compile ~unroll:b.Suite.unroll ~verify:false ~scheme ~machine prog in
              List.iter
                (fun cores ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s %s %dc" b.Suite.name (Machine.to_string machine)
                       (Pipeline.scheme_name scheme) cores)
                    true
                    (vector_values_only_agrees ~machine ~cores c))
                [ 1; 2; 4 ])
            Pipeline.all_schemes;
          let prepared =
            (Pipeline.compile ~unroll:b.Suite.unroll ~scheme:Pipeline.Scalar ~machine prog)
              .Pipeline.reference
          in
          List.iter
            (fun (form, p) ->
              List.iter
                (fun cores ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s %s %dc" b.Suite.name (Machine.to_string machine)
                       form cores)
                    true
                    (values_only_agrees ~machine ~cores p))
                [ 1; 2; 4 ])
            [ ("original", prog); ("prepared", prepared) ])
        [ Machine.intel_dunnington; Machine.amd_phenom_ii ])
    Suite.all

(* -- seed independence ---------------------------------------------------------

   Subscripts and loop bounds are affine and nothing branches on data
   (docs/LANGUAGE.md), so a run's counters and its trap, if any,
   depend on the compiled program, the machine and the core count,
   never on the data seed. *)

let timing ~seed ~cores c =
  match Pipeline.execute ~check:false ~seed ~cores c with
  | r -> Ok r.Pipeline.counters
  | exception Vm.Trap.Trap info -> Error info

let timing_testable =
  Alcotest.result counters_testable (Alcotest.testable Vm.Trap.pp ( = ))

let seed_free ~cores c =
  Alcotest.equal timing_testable (timing ~seed:42 ~cores c) (timing ~seed:7 ~cores c)

let seed_fuzz =
  QCheck.Test.make ~name:"generated kernels" ~count:40 arb_program (fun p ->
      match Program.validate p with
      | Error _ -> true
      | Ok () ->
          List.for_all
            (fun machine ->
              List.for_all
                (fun scheme ->
                  let c = Pipeline.compile ~unroll:2 ~verify:false ~scheme ~machine p in
                  List.for_all
                    (fun cores ->
                      seed_free ~cores c
                      || QCheck.Test.fail_reportf "%s on %s, %d cores: seeds time apart:\n%s"
                           (Pipeline.scheme_name scheme) (Machine.to_string machine) cores
                           (Program.to_string p))
                    [ 1; 2; 4 ])
                Pipeline.all_schemes)
            [ Machine.intel_dunnington; Machine.amd_phenom_ii ])

(* Every suite kernel under every scheme, on both machines at 1, 2
   and 4 cores. *)
let test_seed_free_on_suite () =
  let module Suite = Slp_benchmarks.Suite in
  List.iter
    (fun b ->
      let prog = Suite.program b in
      List.iter
        (fun machine ->
          List.iter
            (fun scheme ->
              let c =
                Pipeline.compile ~unroll:b.Suite.unroll ~verify:false ~scheme ~machine prog
              in
              List.iter
                (fun cores ->
                  Alcotest.check timing_testable
                    (Printf.sprintf "%s %s %s %dc" b.Suite.name (Pipeline.scheme_name scheme)
                       (Machine.to_string machine) cores)
                    (timing ~seed:42 ~cores c) (timing ~seed:7 ~cores c))
                [ 1; 2; 4 ])
            Pipeline.all_schemes)
        [ Machine.intel_dunnington; Machine.amd_phenom_ii ])
    Suite.all

(* -- timing-only vs timed --------------------------------------------------------

   [Pipeline.timing] folds each block's non-memory costs and counts
   into one delta and simulates only the memory accesses; at one core
   its counters and its trap, if any, must equal the timed run's bit
   for bit. *)

let timing_only c =
  match Pipeline.timing c with
  | counters -> Ok counters
  | exception Vm.Trap.Trap info -> Error info

let timing_fuzz =
  QCheck.Test.make ~name:"generated kernels, every scheme" ~count:40 arb_repeated (fun p ->
      match Program.validate p with
      | Error _ -> true
      | Ok () ->
          List.for_all
            (fun machine ->
              List.for_all
                (fun scheme ->
                  let c = Pipeline.compile ~unroll:2 ~verify:false ~scheme ~machine p in
                  Alcotest.equal timing_testable (timing ~seed:42 ~cores:1 c) (timing_only c)
                  || QCheck.Test.fail_reportf "%s on %s: timing-only run differs:\n%s"
                       (Pipeline.scheme_name scheme) (Machine.to_string machine)
                       (Program.to_string p))
                Pipeline.all_schemes)
            [ Machine.intel_dunnington; Machine.amd_phenom_ii ])

(* Every suite program: 16 kernels under every scheme, on both 128-bit
   machines and Figure 18's Intel model at 256 and 512 bits, compiled
   as the benchmarks compile them (suite unroll scaled by width/128).
   None spills or fails the lane proof, so none falls back to the timed
   engine. *)
let test_timing_only_on_suite () =
  let module Suite = Slp_benchmarks.Suite in
  let intel = Machine.intel_dunnington in
  let fallbacks = Vm.Engine.timing_fallbacks () in
  List.iter
    (fun machine ->
      List.iter
        (fun b ->
          let unroll = max 1 (b.Suite.unroll * machine.Machine.simd_bits / 128) in
          List.iter
            (fun scheme ->
              let c =
                Pipeline.compile ~unroll ~verify:false ~scheme ~machine (Suite.program b)
              in
              Alcotest.check counters_testable
                (Printf.sprintf "%s %s %s %d bits" b.Suite.name (Pipeline.scheme_name scheme)
                   (Machine.to_string machine) machine.Machine.simd_bits)
                (Pipeline.execute ~check:false c).Pipeline.counters
                (Pipeline.timing c))
            Pipeline.all_schemes)
        Suite.all)
    [
      intel;
      Machine.amd_phenom_ii;
      Machine.with_simd_bits intel 256;
      Machine.with_simd_bits intel 512;
    ];
  Alcotest.(check int) "runs on the timed engine" fallbacks (Vm.Engine.timing_fallbacks ())

(* Printing a program and re-parsing it must yield the same scalar
   semantics (the printer emits the input language). *)
let roundtrip =
  QCheck.Test.make ~name:"pp/parse roundtrip preserves semantics" ~count:60
    arb_program (fun p ->
      match Program.validate p with
      | Error _ -> true
      | Ok () -> begin
          let src = Program.to_source p in
          match Slp_frontend.Parser.parse ~name:"roundtrip" src with
          | exception Slp_frontend.Parser.Error (msg, l, c) ->
              QCheck.Test.fail_reportf "reparse failed at %d:%d: %s\n%s" l c msg src
          | reparsed ->
              let machine = Machine.intel_dunnington in
              let r1 = Slp_vm.Scalar_exec.run ~machine p in
              let r2 = Slp_vm.Scalar_exec.run ~machine reparsed in
              Slp_vm.Memory.same_contents r1.Slp_vm.Scalar_exec.memory
                r2.Slp_vm.Scalar_exec.memory
        end)

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        List.map Seeded.to_alcotest
          [
            fuzz Pipeline.Native "native preserves semantics";
            fuzz Pipeline.Slp "slp preserves semantics";
            fuzz Pipeline.Global "global preserves semantics";
            fuzz Pipeline.Global_layout "global+layout preserves semantics";
            fuzz
              ~options:{ Pipeline.default_options with Pipeline.register_reuse = false }
              Pipeline.Global
              "global without register reuse preserves semantics";
            fuzz
              ~machine:{ Machine.intel_dunnington with Machine.vector_registers = 2 }
              Pipeline.Global
              "global on a 2-register machine (spill-heavy) preserves semantics";
            roundtrip;
          ] );
      ( "engine vs interpreter",
        List.map Seeded.to_alcotest
          [
            engine_fuzz "scalar engine matches interpreter" (fun p ->
                engine_scalar_agrees p);
            engine_fuzz "scalar engine matches interpreter on 4 cores" (fun p ->
                engine_scalar_agrees ~cores:4 p);
            engine_fuzz "global engine matches interpreter" (fun p ->
                engine_vector_agrees Pipeline.Global p);
            engine_fuzz "global engine matches interpreter on 4 cores" (fun p ->
                engine_vector_agrees ~cores:4 Pipeline.Global p);
            engine_fuzz "layout engine matches interpreter (setup, scalar packs)"
              (fun p -> engine_vector_agrees Pipeline.Global_layout p);
            engine_fuzz "spill-heavy engine matches interpreter" (fun p ->
                engine_vector_agrees
                  ~machine:
                    { Machine.intel_dunnington with Machine.vector_registers = 2 }
                  Pipeline.Global p);
          ]
        @ [
            Alcotest.test_case "engine matches interpreter on every suite kernel"
              `Slow test_engine_on_suite;
            Alcotest.test_case "engine matches interpreter on every example kernel"
              `Quick test_engine_on_examples;
          ] );
      ( "values-only vs timed",
        [
          Seeded.to_alcotest values_only_fuzz;
          Seeded.to_alcotest vector_values_only_fuzz;
          Alcotest.test_case "values-only memory matches on every suite kernel" `Slow
            test_values_only_on_suite;
        ] );
      ( "seed independence",
        [
          Seeded.to_alcotest seed_fuzz;
          Alcotest.test_case "every suite kernel" `Slow test_seed_free_on_suite;
        ] );
      ( "timing-only vs timed",
        [
          Seeded.to_alcotest timing_fuzz;
          Alcotest.test_case "every suite program" `Slow test_timing_only_on_suite;
        ] );
    ]
