(* slpfuzz — the generative differential fuzzer.

   Draws random well-formed kernels, compiles each through every
   requested scheme x machine with the pass-by-pass verifier enabled,
   cross-checks vectorized execution against the scalar oracle
   (memory, scalars, finite cycles), and on any failure shrinks to a
   minimal reproducer printed as re-parseable kernel source plus the
   (seed, case) replay coordinates. *)

open Cmdliner
module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Fuzz = Slp_fuzz

let scheme_conv =
  let parse s =
    Option.to_result
      ~none:(`Msg (Printf.sprintf "unknown scheme %S" s))
      (Pipeline.scheme_of_string s)
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Pipeline.scheme_to_string s))

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let count =
  Arg.(value & opt int 300 & info [ "count" ] ~docv:"N" ~doc:"Number of kernels to draw.")

let index =
  Arg.(
    value
    & opt (some int) None
    & info [ "index" ] ~docv:"I"
        ~doc:"Replay a single case index of the campaign instead of running all of it.")

let max_stmts =
  Arg.(
    value
    & opt int Fuzz.Gen.default_options.Fuzz.Gen.max_stmts
    & info [ "max-stmts" ] ~docv:"N"
        ~doc:"Statement budget of the innermost generated block.")

let scheme =
  Arg.(
    value
    & opt (some scheme_conv) None
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Restrict the oracle to one scheme (scalar, native, slp, global, \
           global-layout, optimal); default: all six.")

let replay =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Run the oracle (and shrinker) on a kernel source file instead of \
              generated programs.")

let repro =
  Arg.(
    value
    & opt string (Filename.concat "_fuzz" "repro.kernel")
    & info [ "repro" ] ~docv:"FILE"
        ~doc:"Where to write the first shrunken reproducer on failure.")

(* Reproducers default into the gitignored _fuzz/ scratch directory;
   create it on demand so a failing campaign never loses its repro. *)
let ensure_repro_dir path =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let progress =
  Arg.(value & flag & info [ "progress" ] ~doc:"Print a line every 50 cases.")

let config_of ~seed ~count ~max_stmts ~scheme =
  let schemes =
    match scheme with None -> Pipeline.all_schemes | Some s -> [ Pipeline.Scalar; s ]
  in
  {
    Fuzz.Harness.seed;
    count;
    schemes;
    gen_options = { Fuzz.Gen.default_options with Fuzz.Gen.max_stmts };
  }

let write_repro ?scheme path (r : Fuzz.Harness.failure_report) =
  ensure_repro_dir path;
  let oc = open_out path in
  Printf.fprintf oc "# slpfuzz reproducer: --seed %d --index %d%s\n"
    r.Fuzz.Harness.seed r.Fuzz.Harness.case_index
    (match scheme with
    | Some s -> " --scheme " ^ Pipeline.scheme_to_string s
    | None -> "");
  List.iter
    (fun f -> Printf.fprintf oc "# %s\n" (Format.asprintf "%a" Fuzz.Oracle.pp_failure f))
    r.Fuzz.Harness.failures;
  output_string oc (Slp_ir.Program.to_source r.Fuzz.Harness.shrunk);
  close_out oc

(* A kernel file is judged like a campaign case: the same oracle,
   options, schemes and shrink budget. *)
let run_replay file config repro =
  match Slp_frontend.Parser.parse_file file with
  | exception Slp_frontend.Parser.Error (msg, line, col) ->
      Printf.eprintf "%s:%d:%d: error: %s\n" file line col msg;
      1
  | exception Slp_frontend.Lexer.Error (msg, line, col) ->
      Printf.eprintf "%s:%d:%d: error: %s\n" file line col msg;
      1
  | prog -> (
      match Fuzz.Harness.check config ~index:0 prog with
      | _, None ->
          Printf.printf "replay %s: all oracles clean\n" file;
          0
      | _, Some r ->
          Printf.printf "replay %s: %d failure(s)\n" file (List.length r.Fuzz.Harness.failures);
          List.iter
            (fun f -> Format.printf "  %a@." Fuzz.Oracle.pp_failure f)
            r.Fuzz.Harness.failures;
          let source = Slp_ir.Program.to_source r.Fuzz.Harness.shrunk in
          Printf.printf "minimal reproducer (%d statements):\n%s"
            (Slp_ir.Program.stmt_count r.Fuzz.Harness.shrunk)
            source;
          ensure_repro_dir repro;
          let oc = open_out repro in
          output_string oc source;
          close_out oc;
          Printf.printf "reproducer written to %s\n" repro;
          1)

let main seed count index max_stmts scheme replay repro progress =
  let config = config_of ~seed ~count ~max_stmts ~scheme in
  match replay with
  | Some file -> run_replay file config repro
  | None ->
      let stats =
        match index with
        | Some i ->
            (* Replay one case of the campaign by its coordinates. *)
            let program = Fuzz.Harness.case_program config i in
            Format.printf "case %d:@.%s@." i (Slp_ir.Program.to_source program);
            {
              Fuzz.Harness.cases = 1;
              reports = Option.to_list (snd (Fuzz.Harness.check config ~index:i program));
              drift_total = 0;
              drift_agreements = 0;
              drift_ties = 0;
              drift_disagreements = 0;
            }
        | None ->
            Fuzz.Harness.run
              ~on_case:(fun i _ ->
                if progress && i mod 50 = 0 then
                  Printf.printf "... case %d/%d\n%!" i count)
              config
      in
      Printf.printf "slpfuzz: %d case(s), seed %d: %d failure(s)" stats.Fuzz.Harness.cases
        seed
        (List.length stats.Fuzz.Harness.reports);
      if stats.Fuzz.Harness.drift_total > 0 then
        Printf.printf
          "; cost-model ordering over %d machine-records: %d agree, %d tie, %d disagree"
          stats.Fuzz.Harness.drift_total stats.Fuzz.Harness.drift_agreements
          stats.Fuzz.Harness.drift_ties stats.Fuzz.Harness.drift_disagreements;
      print_newline ();
      (match stats.Fuzz.Harness.reports with
      | [] -> ()
      | first :: _ as reports ->
          List.iter
            (fun r -> Format.printf "%a@." Fuzz.Harness.pp_report r)
            reports;
          write_repro ?scheme repro first;
          Printf.printf "first reproducer written to %s\n" repro);
      if stats.Fuzz.Harness.reports = [] then 0 else 1

let cmd =
  let doc = "generative differential fuzzer for the SLP pipeline" in
  Cmd.v
    (Cmd.info "slpfuzz" ~version:"1.0" ~doc)
    Term.(
      const main $ seed $ count $ index $ max_stmts $ scheme $ replay $ repro
      $ progress)

let () = exit (Cmd.eval' cmd)
