(* slpc — the SLP compiler driver.

   Parses a kernel-language file, runs the selected SLP pipeline,
   optionally dumps the IR / schedules / vector code, and simulates
   the result on a machine model. *)

open Cmdliner
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine

let conv of_string to_string ~error =
  let parse s = Option.to_result ~none:(`Msg (error s)) (of_string s) in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let scheme_conv =
  conv Pipeline.scheme_of_string Pipeline.scheme_to_string
    ~error:(Printf.sprintf "unknown scheme %S")

let machine_conv =
  conv Machine.of_string Machine.to_string
    ~error:(Printf.sprintf "unknown machine %S (intel|amd)")

let file =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc:"Kernel source file.")

let scheme =
  Arg.(
    value
    & opt scheme_conv Pipeline.Global
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Optimization scheme: scalar, native, slp, global, global-layout, \
           optimal.")

let machine =
  Arg.(
    value
    & opt machine_conv Machine.intel_dunnington
    & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Machine model: intel or amd.")

let simd =
  Arg.(
    value
    & opt (some int) None
    & info [ "simd" ] ~docv:"BITS" ~doc:"Override the SIMD datapath width in bits.")

let unroll =
  Arg.(
    value
    & opt (some int) None
    & info [ "u"; "unroll" ] ~docv:"N" ~doc:"Loop unroll factor (default: lanes).")

let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the prepared IR.")
let dump_plan = Arg.(value & flag & info [ "dump-plan" ] ~doc:"Print groups and schedules.")
let dump_vector = Arg.(value & flag & info [ "dump-vector" ] ~doc:"Print the vector program.")

let dump_deps =
  Arg.(
    value & flag
    & info [ "deps" ]
        ~doc:
          "Print the dependence graph of the prepared IR as JSON: one edge \
           per statement pair and array with kind, carrier, distance and \
           direction vector, plus recognized scalar reductions.")
let run = Arg.(value & flag & info [ "run" ] ~doc:"Simulate and report counters.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Simulate and pretty-print the VM counters (implies execution, \
           without the correctness/speedup report of $(b,--run)).")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a hierarchical span trace of the compile (and any \
           simulation) and write it to $(docv) as Chrome trace-event JSON \
           (load in chrome://tracing or Perfetto).")

let remarks =
  Arg.(
    value & flag
    & info [ "remarks" ]
        ~doc:
          "Print structured optimization remarks: every grouping \
           merge/reject, schedule reuse/permute/pack decision, cost gate \
           verdict, and layout transform, with stable ids.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Simulate under the VM profiler and print the hot-statement \
           report: per statement/pack cycle attribution and cache hits by \
           level.")

let profile_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:"Like $(b,--profile), but write the attribution as JSON to $(docv).")

let verify =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "verify" ]
              ~doc:"Run the pass-by-pass verifier after each stage (default)." );
          ( false,
            info [ "no-verify" ]
              ~doc:"Skip verification (e.g. when timing compilation)." );
        ])

let cores = Arg.(value & opt int 1 & info [ "cores" ] ~docv:"N" ~doc:"Simulated cores.")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Input data seed.")

let resilient =
  Arg.(
    value & flag
    & info [ "resilient" ]
        ~doc:
          "Fault-tolerant mode: a kernel whose compilation fails at any \
           stage degrades to verified scalar code instead of aborting; \
           bailouts are reported and the exit status is 3.")

let bailout_report =
  Arg.(
    value
    & opt (some string) None
    & info [ "bailout-report" ] ~docv:"FILE"
        ~doc:"Write the machine-readable JSON bailout report to $(docv).")

let max_errors =
  Arg.(
    value & opt int 20
    & info [ "max-errors" ] ~docv:"N"
        ~doc:"Report up to $(docv) frontend diagnostics before giving up.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Per-job wall-clock deadline, enforced cooperatively at stage \
           boundaries and step-budget ticks; a breach is a BAIL16 bailout \
           (exit 2, or scalar degradation under --resilient).")

let max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Per-pass step budget for grouping and scheduling; exhaustion is a \
           BAIL11 bailout (scalar degradation under --resilient).")

let solver_steps =
  Arg.(
    value
    & opt int Pipeline.default_options.Pipeline.solver_steps
    & info [ "solver-steps" ] ~docv:"N"
        ~doc:
          "Per-block search budget of the exact pack solver (scheme \
           $(b,optimal) only).  Exhaustion is advisory: the block falls back \
           to the holistic heuristic under BAIL15 and the exit status stays \
           0.")

let options =
  let make max_steps solver_steps =
    { Pipeline.default_options with Pipeline.max_steps; solver_steps }
  in
  Term.(const make $ max_steps $ solver_steps)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let write_bailout_report path bailouts =
  let oc = open_out path in
  output_string oc (Pipeline.bailout_report_json bailouts);
  output_char oc '\n';
  close_out oc

(* Exit status: 0 success, 2 input or compile error, 3 compiled in
   resilient mode but degraded to scalar. *)
let main file scheme machine simd unroll verify dump_ir dump_plan dump_vector
    dump_deps run stats trace_file remarks profile profile_json cores seed
    resilient bailout_report max_errors timeout options =
  let machine =
    match simd with Some bits -> Machine.with_simd_bits machine bits | None -> machine
  in
  let deadline =
    Option.map
      (fun seconds ->
        Slp_util.Slp_error.Deadline.create ~clock:Slp_obs.Clock.now ~seconds)
      timeout
  in
  let name = Filename.remove_extension (Filename.basename file) in
  let obs =
    Slp_obs.Obs.create
      ~trace:(trace_file <> None)
      ~remarks
      ~profile:(profile || profile_json <> None)
      ()
  in
  match Slp_frontend.Parser.parse_all ~max_errors ~name (read_file file) with
  | Result.Error diags ->
      List.iter
        (fun (d : Slp_frontend.Parser.diagnostic) ->
          Printf.eprintf "%s:%d:%d: error: %s\n" file d.Slp_frontend.Parser.line
            d.Slp_frontend.Parser.col d.Slp_frontend.Parser.message)
        diags;
      let n = List.length diags in
      Printf.eprintf "%d error%s\n" n (if n = 1 then "" else "s");
      2
  | Ok prog ->
      let compiled, bailouts =
        if resilient then begin
          let r =
            Pipeline.compile_resilient ?unroll ~options ?deadline ~verify ~obs
              ~scheme ~machine prog
          in
          List.iter
            (fun (b : Pipeline.bailout) ->
              Printf.eprintf "%s: bailout [%s]: %s\n" b.Pipeline.kernel
                (Slp_util.Slp_error.code_name b.Pipeline.error.Slp_util.Slp_error.code)
                b.Pipeline.error.Slp_util.Slp_error.message)
            r.Pipeline.bailouts;
          if r.Pipeline.degraded then
            Printf.eprintf "%s: degraded to scalar (%s requested)\n" name
              (Pipeline.scheme_name scheme);
          (r.Pipeline.result, Some r.Pipeline.bailouts)
        end
        else
          match
            Pipeline.compile ?unroll ~options ?deadline ~verify ~obs ~scheme
              ~machine prog
          with
          | c -> (c, None)
          | exception Slp_verify.Verify.Verification_failed (what, report) ->
              Format.eprintf "%s: verification failed@.%a@." what
                Slp_verify.Verify.pp_report report;
              exit 2
          | exception Slp_util.Slp_error.Error e ->
              Printf.eprintf "%s: error: %s\n" name (Slp_util.Slp_error.to_string e);
              (* A structured failure still produces a machine-readable
                 report when one was asked for — BAIL16 deadline
                 breaches land here in non-resilient mode. *)
              Option.iter
                (fun path ->
                  write_bailout_report path
                    [
                      {
                        Pipeline.kernel = name;
                        scheme;
                        machine = machine.Machine.name;
                        error = e;
                      };
                    ])
                bailout_report;
              exit 2
      in
      Option.iter
        (fun path -> write_bailout_report path (Option.value ~default:[] bailouts))
        bailout_report;
      Printf.printf "scheme: %s on %s (%d-bit SIMD), unroll x%d\n"
        (Pipeline.scheme_name scheme) machine.Machine.name machine.Machine.simd_bits
        compiled.Pipeline.unroll_factor;
      (* Advisory solver bailouts (scheme optimal): reported, but they
         neither degrade the compile nor change the exit status. *)
      List.iter
        (fun (e : Slp_util.Slp_error.t) ->
          Printf.eprintf "%s: solver bail [%s]: %s\n" name
            (Slp_util.Slp_error.code_name e.Slp_util.Slp_error.code)
            e.Slp_util.Slp_error.message)
        compiled.Pipeline.solver_bails;
      (match compiled.Pipeline.verify_report with
      | Some r ->
          let warnings = Slp_verify.Verify.warnings r in
          Printf.printf "verification: clean (%d warning%s)\n" (List.length warnings)
            (if List.length warnings = 1 then "" else "s");
          List.iter (Format.printf "  %a@." Slp_verify.Diagnostic.pp) warnings
      | None -> ());
      (let st = compiled.Pipeline.spill_stats in
       if st.Slp_codegen.Regalloc.spills > 0 then
         Printf.printf "register allocation: %d spills, %d reloads (pressure %d)\n"
           st.Slp_codegen.Regalloc.spills st.Slp_codegen.Regalloc.reloads
           st.Slp_codegen.Regalloc.max_pressure);
      if dump_ir then
        Format.printf "-- prepared IR --@.%a@." Slp_ir.Program.pp
          compiled.Pipeline.reference;
      if dump_deps then
        print_endline
          (Slp_obs.Json.to_string
             (Slp_depend.Depend.to_json
                (Slp_depend.Depend.of_program compiled.Pipeline.reference)));
      (match (dump_plan, compiled.Pipeline.plan) with
      | true, Some plan ->
          List.iter
            (fun (bp : Slp_core.Driver.block_plan) ->
              Format.printf "-- block %s --@."
                bp.Slp_core.Driver.block.Slp_ir.Block.label;
              (match bp.Slp_core.Driver.schedule with
              | Some s -> Format.printf "%a@." Slp_core.Schedule.pp s
              | None -> Format.printf "(kept scalar)@.");
              match bp.Slp_core.Driver.estimate with
              | Some e ->
                  Format.printf "estimated: scalar %.1f vs vector %.1f@."
                    e.Slp_core.Cost.scalar_cost e.Slp_core.Cost.vector_cost
              | None -> ())
            plan.Slp_core.Driver.plans
      | _, _ -> ());
      (match (dump_vector, compiled.Pipeline.vector) with
      | true, Some v -> Format.printf "%a@." Slp_vm.Visa.pp_program v
      | true, None -> Format.printf "(scalar scheme: no vector program)@."
      | false, _ -> ());
      (if remarks then
         let rs = Slp_obs.Obs.remarks obs in
         Format.printf "-- remarks (%d) --@." (List.length rs);
         List.iter (Format.printf "%a@." Slp_obs.Remark.pp) rs);
      let want_exec = run || stats || profile || profile_json <> None in
      if want_exec then begin
        let r = Pipeline.execute ~cores ~seed ~check:run ~obs compiled in
        if run || stats then
          Format.printf "-- execution (%d core%s, seed %d) --@.%a@." cores
            (if cores = 1 then "" else "s")
            seed Slp_vm.Counters.pp r.Pipeline.counters;
        if run then begin
          Format.printf "semantics vs scalar reference: %s@."
            (if r.Pipeline.correct then "match" else "MISMATCH");
          (* The measured run above supplies the scheme's cycles; one
             timed scalar run supplies the baseline's. *)
          let scalar =
            match compiled.Pipeline.vector with
            | None -> r
            | Some _ ->
                Pipeline.execute ~cores ~seed ~check:false
                  { compiled with Pipeline.scheme = Pipeline.Scalar; vector = None }
          in
          let speedup =
            Slp_vm.Counters.total_cycles scalar.Pipeline.counters
            /. Slp_vm.Counters.total_cycles r.Pipeline.counters
          in
          Format.printf "speedup over scalar: %.3fx (%.1f%% reduction)@." speedup
            (100.0 *. (1.0 -. (1.0 /. speedup)))
        end
      end;
      (match obs.Slp_obs.Obs.profile with
      | Some p ->
          if profile then
            Format.printf "-- profile --@.%a@."
              (fun ppf -> Slp_obs.Profile.report ppf)
              p;
          Option.iter
            (fun path ->
              let oc = open_out path in
              output_string oc
                (Slp_obs.Json.to_string (Slp_obs.Profile.to_json p));
              output_char oc '\n';
              close_out oc)
            profile_json
      | None -> ());
      (match (obs.Slp_obs.Obs.trace, trace_file) with
      | Some t, Some path -> Slp_obs.Trace.write_file t path
      | _ -> ());
      (match bailouts with Some (_ :: _) -> 3 | _ -> 0)

let cmd =
  let doc = "compile kernel programs with the holistic SLP framework" in
  Cmd.v
    (Cmd.info "slpc" ~version:"1.0" ~doc)
    Term.(
      const main $ file $ scheme $ machine $ simd $ unroll $ verify $ dump_ir
      $ dump_plan $ dump_vector $ dump_deps $ run $ stats $ trace_file
      $ remarks $ profile $ profile_json $ cores $ seed $ resilient
      $ bailout_report $ max_errors $ timeout $ options)

let () = exit (Cmd.eval' cmd)
