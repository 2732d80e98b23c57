open Slp_ir
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Vm = Slp_vm

type failure = { scheme : string; machine : string; stage : string; message : string }

type drift = {
  machine : string;
  predicted : (string * float) list;
  measured : (string * float) list;
}

type outcome = { failures : failure list; drifts : drift list }

(* The paper's two evaluation machines, and the data seed of every run. *)
let machines = [ Machine.intel_dunnington; Machine.amd_phenom_ii ]
let seed = 42

(* A fifth of the default solver budget: generated kernels are small,
   so the exact search still proves optimality on almost all of them,
   while a pathological draw bails instead of stalling a campaign. *)
let options = { Pipeline.default_options with Pipeline.solver_steps = 4_000 }
let failed o = o.failures <> []

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "[%s/%s/%s] %s" f.machine f.scheme f.stage f.message

(* -- deliberate miscompile for shrinker tests ---------------------- *)

let flip_binop = function
  | Types.Add -> Types.Sub
  | Types.Sub -> Types.Add
  | Types.Mul -> Types.Div
  | Types.Div -> Types.Mul
  | Types.Min -> Types.Max
  | Types.Max -> Types.Min

let miscompile (p : Vm.Visa.program) =
  let found = ref false in
  let mutate_instr (i : Vm.Visa.instr) =
    match i with
    | Vm.Visa.Vbin { dst; op; a; b } when not !found ->
        found := true;
        Vm.Visa.Vbin { dst; op = flip_binop op; a; b }
    | other -> other
  in
  let rec mutate_items items =
    List.map
      (function
        | Vm.Visa.Block instrs -> Vm.Visa.Block (List.map mutate_instr instrs)
        | Vm.Visa.Loop l -> Vm.Visa.Loop { l with Vm.Visa.body = mutate_items l.Vm.Visa.body })
      items
  in
  { p with Vm.Visa.body = mutate_items p.Vm.Visa.body }

(* -- comparison helpers -------------------------------------------- *)

let feq x y = Float.equal x y || Float.abs (x -. y) <= 1e-9

(* First diverging array element between the scalar-reference and the
   vectorized memory, restricted to the arrays the source program
   declares (layout replicas are derived state). *)
let memory_diff ~env ref_mem vec_mem =
  List.find_map
    (fun (name, _) ->
      let a = Vm.Memory.array_values ref_mem name in
      let b = Vm.Memory.array_values vec_mem name in
      if Float.Array.length a <> Float.Array.length b then
        Some
          (Printf.sprintf "array %s: size %d vs %d" name (Float.Array.length a)
             (Float.Array.length b))
      else
        let rec scan i =
          if i >= Float.Array.length a then None
          else if feq (Float.Array.get a i) (Float.Array.get b i) then scan (i + 1)
          else
            Some
              (Printf.sprintf "array %s[%d]: scalar %.17g vs vectorized %.17g" name i
                 (Float.Array.get a i) (Float.Array.get b i))
        in
        scan 0)
    (Env.arrays env)

let scalar_diff ~names ref_mem vec_mem =
  List.find_map
    (fun name ->
      let a = Vm.Memory.scalar ref_mem name in
      let b = Vm.Memory.scalar vec_mem name in
      if feq a b then None
      else
        Some
          (Printf.sprintf "scalar %s: scalar-exec %.17g vs vectorized %.17g" name a b))
    names

(* -- the repetition stage --------------------------------------------- *)

(* A name built from [base] that [prog] neither declares nor binds as a
   loop index. *)
let fresh_name (prog : Program.t) base =
  let rec indices acc = function
    | Program.Stmts _ -> acc
    | Program.Loop l -> List.fold_left indices (l.Program.index :: acc) l.Program.body
  in
  let bound = List.fold_left indices [] prog.Program.body in
  let rec go k =
    let v = Printf.sprintf "%s%d" base k in
    if Env.is_declared prog.Program.env v || List.mem v bound then go (k + 1) else v
  in
  go 0

(* [prog]'s body inside a repetition loop of 5-12 trips under a fresh
   index, so that the engine's one-core runs fast-forward it past their
   warm-up and, when it settles, skip its values.  Half the programs
   first store the index into an [i64] array, so every iteration writes
   something new; an eighth store a scalar before writing it, and an
   eighth write one only in a triangular loop (no trips at [i = 0]) and
   store it after, so the second iteration stores what the first wrote:
   the only shapes that reach the settle condition's written-before-read
   rule, as [Gen] never reads a temporary first.  Trips and shape follow
   from the source, so a replayed or shrunk kernel is wrapped alike. *)
let repeated (prog : Program.t) =
  let h = Hashtbl.hash (Program.to_source prog) in
  let fresh = fresh_name prog and env = Env.copy prog.Program.env in
  let index = fresh "rep" and w = fresh "W" and x = fresh "S" in
  let stmts assigns =
    let stmt i (lhs, rhs) = Stmt.make ~id:(i + 1) ~lhs ~rhs:(Expr.Leaf rhs) in
    Program.Stmts (Block.make ~label:"bbw" (List.mapi stmt assigns))
  in
  let store ty n at v =
    Env.declare_array env w ty [ n ];
    (Operand.Elem (w, [ at ]), v)
  in
  let set_x = (Operand.Scalar x, Operand.Const 1.5) in
  let prologue =
    if h / 8 mod 2 = 1 then
      [ stmts [ store Types.I64 1 (Affine.const 0) (Operand.Scalar index) ] ]
    else (
      if h / 16 mod 4 >= 2 then Env.declare_scalar env x Types.F64;
      match h / 16 mod 4 with
      | 2 -> [ stmts [ store Types.F64 1 (Affine.const 0) (Operand.Scalar x); set_x ] ]
      | 3 ->
          let i = fresh "tri" and j = fresh "trj" in
          [
            Program.loop i ~lo:(Affine.const 0) ~hi:(Affine.const 2)
              [
                Program.loop j ~lo:(Affine.const 0) ~hi:(Affine.var i) [ stmts [ set_x ] ];
                stmts [ store Types.F64 2 (Affine.var i) (Operand.Scalar x) ];
              ];
          ]
      | _ -> [])
  in
  Program.make ~name:prog.Program.name ~env
    [
      Program.loop index ~lo:(Affine.const 0)
        ~hi:(Affine.const (5 + (h mod 8)))
        (prologue @ prog.Program.body);
    ]

(* The engine's one-core timed, values-only and timing-only runs of one
   program against the interpreter's: the timed run's counters and
   memory, the values-only run's memory and the timing-only run's
   counters, or the same exception.  The interpreters simulate every
   iteration and share no code with the engine's fast paths. *)
let check_runs ~fail ~interpreter ~timed ~values ~timing =
  let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let reference = outcome interpreter in
  let check what run same =
    match (reference, outcome run) with
    | Ok expected, Ok got when same expected got -> ()
    | Error expected, Error got when String.equal expected got -> ()
    | Ok _, Ok _ -> fail (what ^ " run differs from the interpreter")
    | Error e, Ok _ -> fail (Printf.sprintf "%s run completes, the interpreter raises %s" what e)
    | _, Error e -> fail (Printf.sprintf "%s run raises %s" what e)
  in
  check "timed" timed (fun (c, m) (c', m') ->
      Vm.Counters.equal c c' && Vm.Memory.equal m m');
  check "values-only" values (fun (_, m) m' -> Vm.Memory.equal m m');
  check "timing-only" timing (fun (c, _) c' -> Vm.Counters.equal c c')

(* The [repeat] stage's machine: [machine] with its cache levels cut
   down so that generated kernels overflow them, each level shaped
   unlike the others (L1 16 sets x 3 ways, L2 3 x 4, L3 16 x 2) so
   that misses reach it in a different order and the hierarchy settles
   late.  Generated kernels fit in either machine's own L1, where every
   level has settled after one iteration and a fast-forward whose
   warm-up is one or two iterations short reads the right cycles.  Of
   the shapes tried on generated kernels, this one most often needs
   the full L + 1 iterations.  In the 300-case campaigns at seeds 42
   and 7 it is the only machine whose loops are first steady at
   iteration 3 or 4; on the machines' own caches every loop is steady
   at iteration 1 or 2. *)
let late_settling (machine : Machine.t) =
  let level sets ways (l : Machine.cache_level) =
    { l with Machine.size_bytes = sets * ways * l.Machine.line_bytes; ways }
  in
  {
    machine with
    Machine.l1 = level 16 3 machine.Machine.l1;
    l2 = level 3 4 machine.Machine.l2;
    l3 = level 16 2 machine.Machine.l3;
  }

let check_repeated ~fail ~schemes machine prog =
  let wrapped = repeated prog in
  let machine = late_settling machine in
  let mname = machine.Machine.name ^ " (small caches)" in
  check_runs
    ~fail:(fail ~scheme:"Scalar" ~machine:mname ~stage:"repeat")
    ~interpreter:(fun () ->
      let r = Vm.Scalar_exec.run_interpreter ~seed ~machine wrapped in
      (r.Vm.Scalar_exec.counters, r.Vm.Scalar_exec.memory))
    ~timed:(fun () ->
      let r = Vm.Scalar_exec.run ~seed ~machine wrapped in
      (r.Vm.Scalar_exec.counters, r.Vm.Scalar_exec.memory))
    ~values:(fun () -> Vm.Scalar_exec.final_memory ~seed ~machine wrapped)
    ~timing:(fun () -> Vm.Engine.run_timing ~machine (Vm.Visa.of_program wrapped));
  List.iter
    (fun scheme ->
      let fail = fail ~scheme:(Pipeline.scheme_name scheme) ~machine:mname ~stage:"repeat" in
      match Pipeline.compile ~verify:false ~options ~scheme ~machine wrapped with
      | exception exn -> fail ("compile raised " ^ Printexc.to_string exn)
      | { Pipeline.vector = None; _ } -> ()
      | { Pipeline.vector = Some vprog; scalar_offsets; _ } ->
          let fresh () =
            let m = Vm.Memory.create ~scalar_layout:scalar_offsets ~env:vprog.Vm.Visa.env () in
            Vm.Memory.init_arrays m ~seed;
            m
          in
          check_runs ~fail
            ~interpreter:(fun () ->
              let r = Vm.Vector_exec.run_interpreter ~seed ~memory:(fresh ()) ~machine vprog in
              (r.Vm.Vector_exec.counters, r.Vm.Vector_exec.memory))
            ~timed:(fun () ->
              let r = Vm.Vector_exec.run ~seed ~memory:(fresh ()) ~machine vprog in
              (r.Vm.Vector_exec.counters, r.Vm.Vector_exec.memory))
            ~values:(fun () ->
              Vm.Engine.vector_final_memory ~seed ~memory:(fresh ()) ~machine vprog)
            ~timing:(fun () ->
              Vm.Engine.run_timing ~scalar_layout:scalar_offsets ~machine vprog))
    schemes

(* -- the oracle ---------------------------------------------------- *)

let run ?(schemes = Pipeline.all_schemes) ?(mutate = fun v -> v) (prog : Program.t) =
  match Program.validate prog with
  | Error msg ->
      {
        failures = [ { scheme = "-"; machine = "-"; stage = "validate"; message = msg } ];
        drifts = [];
      }
  | Ok () ->
      let failures = ref [] and drifts = ref [] in
      let scalar_names = Slp_analysis.Liveness.observable_scalars prog in
      let fail ~scheme ~machine ~stage message =
        failures := { scheme; machine; stage; message } :: !failures
      in
      (* Every one-core timed run is also timed timing-only
         ([Vm.Engine.run_timing]), whose counters must be the timed
         run's bit for bit. *)
      let check_timing ~scheme ~machine (timed : Vm.Counters.t) timing_only =
        match timing_only () with
        | counters when Vm.Counters.equal counters timed -> ()
        | counters ->
            fail ~scheme ~machine ~stage:"timing"
              (Format.asprintf "timing-only counters@ %a@ differ from the timed run's@ %a"
                 Vm.Counters.pp counters Vm.Counters.pp timed)
        | exception exn ->
            fail ~scheme ~machine ~stage:"timing" (Printexc.to_string exn)
      in
      (* Dynamic dependence soundness: replay the program's memory
         accesses against the static analyzer's verdicts.  Scheme- and
         machine-independent (addresses are control-flow-data-free), so
         one trace per case suffices. *)
      (match
         Slp_depend.Dtrace.check
           ~verdict:(Vm.Parcheck.analyze (Vm.Visa.of_program prog))
           prog
       with
      | { Slp_depend.Dtrace.violations = []; _ } -> ()
      | { Slp_depend.Dtrace.violations; _ } ->
          List.iter
            (fun msg -> fail ~scheme:"-" ~machine:"-" ~stage:"dep-soundness" msg)
            violations
      | exception exn ->
          fail ~scheme:"-" ~machine:"-" ~stage:"dep-soundness"
            (Printexc.to_string exn));
      List.iter
        (fun (machine : Machine.t) ->
          let mname = machine.Machine.name in
          (* The scalar oracle runs the *original* program, so the
             unroller is inside the tested surface, not the oracle. *)
          let reference = Vm.Scalar_exec.run ~seed ~machine prog in
          check_timing ~scheme:"Scalar" ~machine:mname reference.Vm.Scalar_exec.counters
            (fun () -> Vm.Engine.run_timing ~machine (Vm.Visa.of_program prog));
          let ref_cycles = Vm.Counters.total_cycles reference.Vm.Scalar_exec.counters in
          if not (Float.is_finite ref_cycles) then
            fail ~scheme:"Scalar" ~machine:mname ~stage:"cycles"
              (Printf.sprintf "non-finite scalar cycles %f" ref_cycles);
          let params = Pipeline.params_of_machine machine in
          let predicted = ref [] and measured = ref [] in
          List.iter
            (fun scheme ->
              let sname = Pipeline.scheme_name scheme in
              match
                Pipeline.compile ~verify:true ~options ~scheme ~machine prog
              with
              | exception Slp_verify.Verify.Verification_failed (what, report) ->
                  fail ~scheme:sname ~machine:mname ~stage:"verify"
                    (Format.asprintf "%s:@ %a" what Slp_verify.Verify.pp_report report)
              | exception Invalid_argument msg ->
                  fail ~scheme:sname ~machine:mname ~stage:"compile" msg
              | exception exn ->
                  fail ~scheme:sname ~machine:mname ~stage:"compile"
                    (Printexc.to_string exn)
              | compiled -> begin
                  (match compiled.Pipeline.plan with
                  | Some plan ->
                      predicted :=
                        (sname, Slp_core.Optimal.modeled_cost ~params plan)
                        :: !predicted
                  | None -> ());
                  match compiled.Pipeline.vector with
                  | None ->
                      (* The Scalar scheme *is* the oracle; measure the
                         prepared (unrolled) program for drift and
                         finiteness only. *)
                      let r =
                        Vm.Scalar_exec.run ~seed ~machine compiled.Pipeline.reference
                      in
                      check_timing ~scheme:sname ~machine:mname r.Vm.Scalar_exec.counters
                        (fun () ->
                          Vm.Engine.run_timing ~machine
                            (Vm.Visa.of_program compiled.Pipeline.reference));
                      let cycles = Vm.Counters.total_cycles r.Vm.Scalar_exec.counters in
                      measured := (sname, cycles) :: !measured;
                      if not (Float.is_finite cycles) then
                        fail ~scheme:sname ~machine:mname ~stage:"cycles"
                          (Printf.sprintf "non-finite cycles %f" cycles)
                  | Some vprog -> begin
                      let vprog = mutate vprog in
                      let memory =
                        Vm.Memory.create ~scalar_layout:compiled.Pipeline.scalar_offsets
                          ~env:vprog.Vm.Visa.env ()
                      in
                      Vm.Memory.init_arrays memory ~seed;
                      match Vm.Vector_exec.run ~seed ~memory ~machine vprog with
                      | exception exn ->
                          fail ~scheme:sname ~machine:mname ~stage:"execute"
                            (Printexc.to_string exn)
                      | r ->
                          check_timing ~scheme:sname ~machine:mname r.Vm.Vector_exec.counters
                            (fun () ->
                              Vm.Engine.run_timing
                                ~scalar_layout:compiled.Pipeline.scalar_offsets ~machine vprog);
                          let cycles =
                            Vm.Counters.total_cycles r.Vm.Vector_exec.counters
                          in
                          measured := (sname, cycles) :: !measured;
                          if not (Float.is_finite cycles) then
                            fail ~scheme:sname ~machine:mname ~stage:"cycles"
                              (Printf.sprintf "non-finite cycles %f" cycles);
                          let ref_mem = reference.Vm.Scalar_exec.memory in
                          let vec_mem = r.Vm.Vector_exec.memory in
                          (match memory_diff ~env:prog.Program.env ref_mem vec_mem with
                          | Some msg ->
                              fail ~scheme:sname ~machine:mname ~stage:"memory" msg
                          | None -> ());
                          (match scalar_diff ~names:scalar_names ref_mem vec_mem with
                          | Some msg ->
                              fail ~scheme:sname ~machine:mname ~stage:"scalars" msg
                          | None -> ())
                    end
                end)
            schemes;
          check_repeated ~fail ~schemes machine prog;
          drifts :=
            { machine = mname; predicted = List.rev !predicted; measured = List.rev !measured }
            :: !drifts)
        machines;
      { failures = List.rev !failures; drifts = List.rev !drifts }
