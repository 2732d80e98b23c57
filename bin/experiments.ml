(* Regenerate the paper's tables and figures.

   Usage:
     experiments                 run everything
     experiments fig16 fig19     run selected reports
     experiments --list          list report ids
     experiments --resilient     degrade failing kernels to scalar
                                 (exit 3 when any kernel bailed out)
     experiments --bailout-report FILE
                                 write the JSON bailout report
     experiments --max-steps N   per-pass step budget (with --resilient)
     experiments --metrics FILE  also write per-kernel metrics JSON
                                 (all six schemes + Global profiler
                                 attribution)
     experiments --gap-report FILE
                                 write the heuristic-gap JSON report
                                 (optimal vs every heuristic, suite +
                                 fuzz corpus)
     experiments --gap-fuzz N    fuzz-corpus sample size for the gap
                                 report (default 1000)
     experiments --plan-digests FILE
                                 write one MD5 line per distinct compile
                                 job of the two benchmark workloads *)

module E = Slp_harness.Experiments
module Runner = Slp_harness.Runner
module Pipeline = Slp_pipeline.Pipeline

let registry =
  [
    ("table1", E.table1);
    ("table2", E.table2);
    ("table3", E.table3);
    ("fig16", E.fig16);
    ("fig17", E.fig17);
    ("fig18", E.fig18);
    ("fig19", E.fig19);
    ("fig20", E.fig20);
    ("fig21", E.fig21);
    ("overhead", E.compile_overhead);
    ("ablations", E.ablations);
    ("reuse_value", E.reuse_value);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Pull option flags (and their values) out of the report-id list. *)
  let resilient = ref false in
  let report_path = ref None in
  let metrics_path = ref None in
  let gap_path = ref None in
  let gap_fuzz = ref None in
  let digests_path = ref None in
  let steps = ref None in
  let rec scan acc = function
    | [] -> List.rev acc
    | "--resilient" :: rest ->
        resilient := true;
        scan acc rest
    | "--bailout-report" :: path :: rest ->
        report_path := Some path;
        scan acc rest
    | "--bailout-report" :: [] ->
        prerr_endline "--bailout-report requires a FILE argument";
        exit 2
    | "--metrics" :: path :: rest ->
        metrics_path := Some path;
        scan acc rest
    | "--metrics" :: [] ->
        prerr_endline "--metrics requires a FILE argument";
        exit 2
    | "--gap-report" :: path :: rest ->
        gap_path := Some path;
        scan acc rest
    | "--gap-report" :: [] ->
        prerr_endline "--gap-report requires a FILE argument";
        exit 2
    | "--plan-digests" :: path :: rest ->
        digests_path := Some path;
        scan acc rest
    | "--plan-digests" :: [] ->
        prerr_endline "--plan-digests requires a FILE argument";
        exit 2
    | "--gap-fuzz" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some v ->
            gap_fuzz := Some v;
            scan acc rest
        | None ->
            prerr_endline "--gap-fuzz requires an integer argument";
            exit 2
      end
    | "--gap-fuzz" :: [] ->
        prerr_endline "--gap-fuzz requires an integer argument";
        exit 2
    | "--max-steps" :: n :: rest -> begin
        match int_of_string_opt n with
        | Some v ->
            steps := Some v;
            scan acc rest
        | None ->
            prerr_endline "--max-steps requires an integer argument";
            exit 2
      end
    | "--max-steps" :: [] ->
        prerr_endline "--max-steps requires an integer argument";
        exit 2
    | a :: rest -> scan (a :: acc) rest
  in
  let args = scan [] args in
  if List.mem "--list" args then
    List.iter (fun (id, _) -> print_endline id) registry
  else begin
    let unknown = List.filter (fun a -> not (List.mem_assoc a registry)) args in
    if unknown <> [] then begin
      prerr_endline ("unknown report(s): " ^ String.concat ", " unknown);
      prerr_endline "use --list to see available ids";
      exit 2
    end;
    if !resilient then begin
      (match !steps with
      | Some s -> Runner.set_resilient ~steps:s true
      | None -> Runner.set_resilient true);
      Runner.clear_bailouts ()
    end;
    (* [--metrics]/[--gap-report]/[--plan-digests] with no report ids
       write just their files; naming reports (or naming none without
       any of these flags) renders them as before. *)
    let run_reports =
      args <> []
      || (!metrics_path = None && !gap_path = None && !digests_path = None)
    in
    if run_reports then
      List.iter
        (fun (id, f) ->
          if args = [] || List.mem id args then print_string (E.render (f ())))
        registry;
    (match !metrics_path with
    | Some path ->
        let oc = open_out path in
        output_string oc (E.metrics_json ());
        output_char oc '\n';
        close_out oc
    | None -> ());
    (match !gap_path with
    | Some path ->
        let module Gap = Slp_harness.Gap in
        let entries, suite_seconds = Gap.suite_report () in
        let fuzz = Gap.fuzz_sample ?cases:!gap_fuzz () in
        let oc = open_out path in
        output_string oc (Slp_obs.Json.to_string (Gap.to_json ~entries ~suite_seconds ~fuzz));
        output_char oc '\n';
        close_out oc;
        List.iter print_endline (Gap.summary_lines entries);
        Printf.printf
          "gap fuzz: %d case(s), %d bailed, %d dominance violation(s); report \
           written to %s\n"
          fuzz.Gap.f_cases fuzz.Gap.f_bailed fuzz.Gap.f_violations path;
        if fuzz.Gap.f_violations > 0 then exit 4
    | None -> ());
    (match !digests_path with
    | Some path ->
        let lines = Slp_harness.Plan_digest.lines () in
        let oc = open_out path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc;
        Printf.printf "plan digests: %d job(s) written to %s\n" (List.length lines) path
    | None -> ());
    let bailouts = if !resilient then Runner.bailouts () else [] in
    (match !report_path with
    | Some path ->
        let oc = open_out path in
        output_string oc (Pipeline.bailout_report_json bailouts);
        output_char oc '\n';
        close_out oc
    | None -> ());
    if bailouts <> [] then begin
      Printf.eprintf "%d kernel(s) degraded to scalar:\n" (List.length bailouts);
      List.iter
        (fun (b : Pipeline.bailout) ->
          Printf.eprintf "  %s (%s on %s): [%s] %s\n" b.Pipeline.kernel
            (Pipeline.scheme_name b.Pipeline.scheme)
            b.Pipeline.machine
            (Slp_util.Slp_error.code_name b.Pipeline.error.Slp_util.Slp_error.code)
            b.Pipeline.error.Slp_util.Slp_error.message)
        bailouts;
      exit 3
    end
  end
