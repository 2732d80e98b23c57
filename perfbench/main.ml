(* perfbench — the repository's end-to-end benchmark.

   perfbench --workload W --seed N --seconds S --trace 0|1

   Runs one workload (suite_exec, compile_wide or serve_mixed) and
   prints a report, then as its last line one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.
   Exits 1 when any output check fails or an exact value drifts.

   In-process workloads run in child processes of this one, so each
   run is a fresh process with no other domain in it; set-up is
   measured as the median of several fresh launches. *)

open Perfbench

let end_to_end =
  [ "setup_s"; "jobs_per_s"; "job_p50_ms"; "job_p90_ms"; "peak_rss_mb"; "sim_cycles_geomean"; "code_size_instrs" ]

(* Printed with the report, not part of the final line: p99 needs
   1000 jobs in a run to be reported at all, and the raw_ figures are
   the wall-clock times before calibration.  failed_frac, zero on a
   healthy tree, is printed with the checks. *)
let report_only = [ "job_p99_ms"; "raw_setup_s"; "raw_jobs_per_s"; "raw_job_p50_ms"; "raw_job_p90_ms" ]

(* The per-layer metrics of the final line: those the benchmark's
   listed workloads measure.  The service layer's metrics are printed
   in the report of a serve_mixed run only. *)
let per_layer =
  List.filter_map
    (fun (l : Layers.layer) -> if Layers.has_prefix "serve." l.Layers.name then None else Some l.Layers.name)
    Layers.catalogue

let exact_metrics = [ "sim_cycles_geomean"; "code_size_instrs"; "vm.sim_instrs"; "codegen.spills"; "slp_core.solver_bails" ]
let setup_probes = 15
let serve_setups = 3
let state_dir = Filename.concat ".bench_build" "perfbench"

let usage () =
  prerr_endline "usage: perfbench --workload suite_exec|compile_wide|serve_mixed --seed N --seconds S --trace 0|1";
  exit 2

let args = Array.to_list Sys.argv |> List.tl

let opt name =
  let rec go = function k :: v :: _ when k = name -> Some v | _ :: rest -> go rest | [] -> None in
  go args

let kind_of = function
  | "suite_exec" -> Some (`Inproc Inproc.Suite_exec)
  | "compile_wide" -> Some (`Inproc Inproc.Compile_wide)
  | "serve_mixed" -> Some `Serve
  | _ -> None

let build_dir = Filename.dirname (Filename.dirname Sys.executable_name)
let tool name = Filename.concat build_dir (Filename.concat "bin" name)

(* -- child processes ---------------------------------------------------- *)

let spawn argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv devnull w Unix.stderr in
  Unix.close w;
  Unix.close devnull;
  (pid, Unix.in_channel_of_descr r)

let reap (pid, ic) =
  close_in_noerr ic;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> () | _ -> failwith "child process failed"

(* Launch to first timed job: a fresh process that parses the corpus
   and reports ready.  Returns the raw and the calibrated time. *)
let setup_probe workload =
  let cal = Calib.measure () in
  let t0 = Host.now () in
  let ((_, ic) as child) = spawn [| Sys.executable_name; "--child"; "setup"; "--workload"; workload |] in
  let line, t1 =
    Fun.protect ~finally:(fun () -> reap child) (fun () ->
        let line = input_line ic in
        (line, Host.now ()))
  in
  if line <> "ready" then failwith "set-up probe did not report ready";
  (t1 -. t0, Calib.scale ~cal (t1 -. t0))

let run_child ~workload ~seed ~seconds ~traced ~dir =
  let out = Filename.concat dir (if traced then "traced.json" else "run.json") in
  let child =
    spawn
      [|
        Sys.executable_name; "--child"; "run"; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
        string_of_float seconds; "--trace"; (if traced then "1" else "0"); "--out"; out;
      |]
  in
  reap child;
  match Slp_obs.Json.parse (Host.read_file out) with
  | Ok j -> Measure.of_json j
  | Error e -> failwith ("unreadable run result: " ^ e)

let child_main () =
  let workload = Option.get (opt "--workload") in
  match (opt "--child", kind_of workload) with
  | Some "setup", Some (`Inproc _) ->
      ignore (Sys.opaque_identity (Inproc.parse_corpus ()));
      print_endline "ready";
      exit 0
  | Some "run", Some (`Inproc kind) ->
      let seed = int_of_string (Option.get (opt "--seed")) in
      let seconds = float_of_string (Option.get (opt "--seconds")) in
      let traced = opt "--trace" = Some "1" in
      let out = Option.get (opt "--out") in
      let m, obs = Inproc.run ~kind ~seed ~seconds ~traced in
      Option.iter
        (fun t -> Slp_obs.Trace.write_file t (Filename.concat (Filename.dirname out) "trace.json"))
        obs.Slp_obs.Obs.trace;
      Host.write_file out (Slp_obs.Json.to_string (Measure.to_json m));
      exit 0
  | _ -> usage ()

(* -- checks on artifacts ---------------------------------------------- *)

let obscheck mode file =
  let pid =
    Unix.create_process (tool "obscheck.exe") [| tool "obscheck.exe"; mode; file |] Unix.stdin Unix.stderr Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

(* Exact values must repeat bit for bit across runs of one tree and
   seed: the first run records them, later runs compare. *)
let exact_guard ~digest ~workload ~seed (m : Measure.t) =
  let dir = Filename.concat state_dir "exact" in
  Host.mkdir_p dir;
  let file = Filename.concat dir (Printf.sprintf "%s-%s-%d" digest workload seed) in
  let mine = List.filter (fun (k, _) -> List.mem k exact_metrics) m.Measure.exact in
  let render kvs = String.concat "\n" (List.map (fun (k, v) -> Printf.sprintf "%s %Ld" k (Int64.bits_of_float v)) kvs) in
  if Sys.file_exists file then
    if Host.read_file file = render mine then Ok "matches the first run of this tree and seed"
    else Error "exact values drifted from the first run of this tree and seed"
  else (
    Host.write_file file (render mine);
    Ok "recorded")

(* -- report --------------------------------------------------------------- *)

let fmt_value v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let final_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (fmt_value v) unit_)
          metrics))

let parent_main () =
  let workload = match opt "--workload" with Some w -> w | None -> usage () in
  let kind = match kind_of workload with Some k -> k | None -> usage () in
  let seed = match Option.bind (opt "--seed") int_of_string_opt with Some s -> s | None -> usage () in
  let seconds = match Option.bind (opt "--seconds") float_of_string_opt with Some s -> s | None -> usage () in
  let traced = match opt "--trace" with Some "1" -> true | Some "0" | None -> false | Some _ -> usage () in
  let run_dir = Filename.concat state_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Host.remove_tree run_dir;
  Host.mkdir_p run_dir;
  let fingerprint = Host.fingerprint ~seed in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n" workload seed seconds (Bool.to_int traced);
  Printf.printf "host: %s\n%!" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fingerprint));
  let untraced, setups, traced_m, artifacts_ok =
    match kind with
    | `Inproc _ ->
        let probes = List.init setup_probes (fun _ -> setup_probe workload) in
        let raw_setup = Measure.metric ~samples:setup_probes "raw_setup_s" "s" (Stats.median (List.map fst probes)) in
        let setups = List.map snd probes in
        let untraced = run_child ~workload ~seed ~seconds ~traced:false ~dir:run_dir in
        let untraced = { untraced with Measure.metrics = raw_setup :: untraced.Measure.metrics } in
        if traced then
          let t = run_child ~workload ~seed ~seconds ~traced:true ~dir:run_dir in
          (untraced, setups, Some t, obscheck "--trace" (Filename.concat run_dir "trace.json"))
        else (untraced, setups, None, true)
    | `Serve ->
        Serve.run ~slpd:(tool "slpd.exe") ~obscheck ~run_dir ~seed ~seconds ~traced ~setups:serve_setups
  in
  let setup_s = Stats.median setups in
  Printf.printf "end-to-end (tracing off):\n";
  Printf.printf "  %-20s %14.6g %-7s samples=%d (median of fresh set-ups)\n" "setup_s" setup_s "s" (List.length setups);
  List.iter
    (fun name ->
      match Measure.find untraced name with
      | Some x when Float.is_finite x.Measure.value ->
          Printf.printf "  %-20s %14.6g %-7s samples=%d\n" name x.Measure.value x.Measure.unit_ x.Measure.samples
      | Some x ->
          Printf.printf "  %-20s %14s %-7s samples=%d (too few beyond the percentile)\n" name "-" x.Measure.unit_
            x.Measure.samples
      | None -> ())
    (List.tl end_to_end @ report_only);
  let exact = exact_guard ~digest:(List.assoc "source_digest" fingerprint) ~workload ~seed untraced in
  let drift =
    match traced_m with
    | Some t ->
        List.filter
          (fun k ->
            Int64.bits_of_float (List.assoc k t.Measure.exact) <> Int64.bits_of_float (List.assoc k untraced.Measure.exact))
          exact_metrics
    | None -> []
  in
  (* Layers a workload does not exercise read 0. *)
  let layer_values =
    match traced_m with
    | None -> []
    | Some t ->
        let get m name = match Measure.find m name with Some x -> x.Measure.value | None -> 0.0 in
        List.map
          (fun (l : Layers.layer) ->
            if l.Layers.name = "obs.trace_overhead_frac" then
              (l, (get untraced "jobs_per_s" -. get t "jobs_per_s") /. get untraced "jobs_per_s")
            else (l, get t l.Layers.name))
          Layers.catalogue
  in
  if layer_values <> [] then begin
    Printf.printf "per-layer (traced run):\n";
    List.iter
      (fun ((l : Layers.layer), v) ->
        Printf.printf "  %-26s %12.6g %-6s should move: %s\n" l.Layers.name v l.Layers.unit_ l.Layers.moves)
      layer_values
  end;
  let all = untraced :: Option.to_list traced_m in
  let attempted = List.fold_left (fun acc (m : Measure.t) -> acc + m.Measure.attempted) 0 all in
  let failed = List.fold_left (fun acc (m : Measure.t) -> acc + m.Measure.failed) 0 all in
  List.iter (fun (m : Measure.t) -> List.iter (fun f -> Printf.printf "  FAIL %s\n" f) m.Measure.failures) all;
  (match exact with Ok s -> Printf.printf "exact values: %s\n" s | Error s -> Printf.printf "FAIL %s\n" s);
  List.iter (fun k -> Printf.printf "FAIL %s differs between the traced and untraced runs\n" k) drift;
  if not artifacts_ok then Printf.printf "FAIL obscheck rejected a written trace or exposition\n";
  let metrics =
    if traced then
      List.filter_map
        (fun ((l : Layers.layer), v) ->
          if List.mem l.Layers.name per_layer then Some (l.Layers.name, l.Layers.unit_, v) else None)
        layer_values
    else
      List.map
        (fun name ->
          if name = "setup_s" then (name, "s", setup_s)
          else
            let x = Option.get (Measure.find untraced name) in
            (name, x.Measure.unit_, x.Measure.value))
        end_to_end
  in
  let unmeasured = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _, _) -> Printf.printf "FAIL %s was not measured\n" name) unmeasured;
  let correct = failed = 0 && Result.is_ok exact && drift = [] && artifacts_ok && unmeasured = [] in
  Printf.printf "checks: attempted=%d failed=%d failed_frac=%g correct=%b\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted))
    correct;
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics in
  Host.remove_tree run_dir;
  final_line ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)

let () = if opt "--child" <> None then child_main () else parent_main ()
