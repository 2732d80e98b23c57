(* The in-process workloads, suite_exec and compile_wide.

   The run process holds no other domain, pool or daemon.  Set-up is
   the corpus parse; the timed window then runs whole passes over the
   job list, each in a fresh seeded order.  A pass of either workload
   takes about [pass_seconds] on a 2-core host, so [seconds] buys a
   fixed number of passes: every run of one setting does the same work,
   whatever the host's speed at the time.  Everything that checks the
   jobs' outputs runs after the window, off the clock. *)

module P = Slp_pipeline.Pipeline
module Obs = Slp_obs.Obs
module Suite = Slp_benchmarks.Suite
module Counters = Slp_vm.Counters

type kind = Suite_exec | Compile_wide

let pass_seconds = 10.0

let jobs_of = function Suite_exec -> Plan.suite_jobs () | Compile_wide -> Plan.wide_jobs ()

let parse_corpus () =
  List.map (fun (b : Suite.t) -> (b.Suite.name, Suite.program b)) Suite.all

type sample = {
  job : Plan.job;
  seconds : float;
  cal : float;  (** The calibration timed just before the job. *)
  minor_words : float;
  outcome : (P.compiled * P.exec_result option, string) result;
}

(* Only what the checks need is kept across the window. *)
let strip (c : P.compiled) = { c with P.plan = None; verify_report = None; origins = [] }

let scheme_wire s = Slp_serve.Proto.scheme_to_string s

let run_job ~kind ~obs ~data_seed ~prog (j : Plan.job) =
  let work () =
    let c = P.compile ~obs ~verify:true ~unroll:j.Plan.unroll ~scheme:j.Plan.scheme ~machine:j.Plan.machine prog in
    let e =
      match kind with
      | Suite_exec -> Some (P.execute ~obs ~seed:data_seed ~check:true c)
      | Compile_wide -> None
    in
    (c, e)
  in
  let traced () =
    Obs.span obs
      ~args:
        [
          ("job", Plan.job_name j);
          ("kernel", j.Plan.kernel.Suite.name);
          ("scheme", scheme_wire j.Plan.scheme);
          ("machine", Plan.machine_tag j.Plan.machine);
          ("width", string_of_int j.Plan.machine.Slp_machine.Machine.simd_bits);
        ]
      "job" work
  in
  let cal = Calib.measure () in
  let w0 = Gc.minor_words () in
  let t0 = Host.now () in
  let outcome = match traced () with r -> Ok r | exception exn -> Error (Printexc.to_string exn) in
  let t1 = Host.now () in
  let w1 = Gc.minor_words () in
  let outcome = Result.map (fun (c, e) -> (strip c, e)) outcome in
  { job = j; seconds = t1 -. t0; cal; minor_words = w1 -. w0; outcome }

(* Bench-timed dependence analysis on a job's prepared program: the
   work the plan and verify spans contain, run after the window so it
   neither inflates the job spans nor shifts GC work out of them. *)
let time_depend (prepared : Slp_ir.Program.t) =
  let t0 = Host.now () in
  List.iter
    (fun (b, box) -> ignore (Slp_depend.Depend.block_dep_pairs ~box b))
    (Slp_depend.Depend.blocks_with_box prepared);
  ignore (Slp_depend.Depend.of_program prepared);
  Host.now () -. t0

(* Bench-timed parse of every kernel: median over repeats, per kernel. *)
let time_parse sources =
  let once () =
    let t0 = Host.now () in
    List.iter
      (fun (name, src) ->
        match Slp_frontend.Parser.parse_all ~name src with
        | Ok _ -> ()
        | Error _ -> failwith ("corpus kernel does not parse: " ^ name))
      sources;
    (Host.now () -. t0) /. float_of_int (List.length sources)
  in
  Stats.median (List.init 21 (fun _ -> once ()))

type distinct = {
  cycles : float;
  instrs : int;
  code : int;
  visa : int;
  spills : int;
  bails : int;
}

let ms x = x *. 1000.0

let run ~kind ~seed ~seconds ~traced =
  let progs = parse_corpus () in
  let jobs = jobs_of kind in
  let data_seed = Plan.data_seed ~seed in
  let obs = if traced then Obs.create ~trace:true () else Obs.none in
  let samples = ref [] in
  for pass = 0 to max 1 (int_of_float (Float.round (seconds /. pass_seconds))) - 1 do
    List.iter
      (fun (j : Plan.job) ->
        let prog = List.assoc j.Plan.kernel.Suite.name progs in
        samples := run_job ~kind ~obs ~data_seed ~prog j :: !samples)
      (Plan.pass_order ~seed ~pass jobs)
  done;
  let rss = Host.peak_rss_mb "self" in
  let samples = List.rev !samples in
  (* -- checks, off the clock -- *)
  let references = Hashtbl.create 16 in
  let reference_of name =
    match Hashtbl.find_opt references name with
    | Some r -> r
    | None ->
        let r = Check.reference ~seed:data_seed (List.assoc name progs) in
        Hashtbl.replace references name r;
        r
  in
  let seen : (string, distinct) Hashtbl.t = Hashtbl.create 256 in
  let m = ref { Measure.attempted = 0; failed = 0; failures = []; metrics = []; exact = [] } in
  let fail j msg = m := Measure.fail_message !m (Printf.sprintf "%s: %s" (Plan.job_name j) msg) in
  List.iter
    (fun s ->
      m := { !m with Measure.attempted = !m.Measure.attempted + 1 };
      match s.outcome with
      | Error msg -> fail s.job ("raised " ^ msg)
      | Ok (_, Some e) when not e.P.correct -> fail s.job "execute: scalar-reference check failed"
      | Ok (c, e) -> (
          let name = Plan.job_name s.job in
          let timed_counters = Option.map (fun e -> e.P.counters) e in
          let code = Check.code_size c in
          match Hashtbl.find_opt seen name with
          | Some d ->
              (* A repeat within the run must reproduce the first
                 occurrence exactly. *)
              let cycles = Option.map Counters.total_cycles timed_counters in
              if code <> d.code || (cycles <> None && cycles <> Some d.cycles) then
                fail s.job "drift: repeat differs from the first run of the job"
          | None -> (
              let counters, memory = Check.rerun ~seed:data_seed c in
              let cycles = Counters.total_cycles counters in
              (match timed_counters with
              | Some t when Int64.bits_of_float (Counters.total_cycles t) <> Int64.bits_of_float cycles ->
                  fail s.job "drift: re-execution cycles differ from the timed run"
              | _ -> ());
              match Check.diff (reference_of s.job.Plan.kernel.Suite.name) memory with
              | Some d -> fail s.job ("memory differs from the scalar reference: " ^ d)
              | None ->
                  Hashtbl.replace seen name
                    {
                      cycles;
                      instrs = Counters.total_instructions counters;
                      code;
                      visa = (match c.P.vector with Some v -> Slp_vm.Visa.instr_count v | None -> 0);
                      spills = c.P.spill_stats.Slp_codegen.Regalloc.spills;
                      bails = List.length c.P.solver_bails;
                    })))
    samples;
  let distinct = Hashtbl.fold (fun _ d acc -> d :: acc) seen [] in
  let sum f = float_of_int (List.fold_left (fun acc d -> acc + f d) 0 distinct) in
  let n = List.length samples in
  let scaled = List.map (fun s -> Calib.scale ~cal:s.cal s.seconds) samples in
  let raw = List.map (fun s -> s.seconds) samples in
  let rate xs = float_of_int n /. List.fold_left ( +. ) 0.0 xs in
  let pct q xs = Option.value (Stats.percentile ~q (List.map ms xs)) ~default:nan in
  let exact =
    [
      ("sim_cycles_geomean", if distinct = [] then nan else Stats.geomean (List.map (fun d -> d.cycles) distinct));
      ("code_size_instrs", sum (fun d -> d.code));
      ("vm.sim_instrs", sum (fun d -> d.instrs));
      ("codegen.visa_instrs", sum (fun d -> d.visa));
      ("codegen.spills", sum (fun d -> d.spills));
      ("slp_core.solver_bails", sum (fun d -> d.bails));
    ]
  in
  let e2e =
    Measure.
      [
        metric ~samples:n "jobs_per_s" "1/s" (rate scaled);
        metric ~samples:n "job_p50_ms" "ms" (pct 0.5 scaled);
        metric ~samples:n "job_p90_ms" "ms" (pct 0.9 scaled);
        metric ~samples:n "job_p99_ms" "ms" (pct 0.99 scaled);
        metric ~samples:n "raw_jobs_per_s" "1/s" (rate raw);
        metric ~samples:n "raw_job_p50_ms" "ms" (pct 0.5 raw);
        metric ~samples:n "raw_job_p90_ms" "ms" (pct 0.9 raw);
        metric "peak_rss_mb" "MiB" rss;
        metric ~samples:(List.length distinct) "sim_cycles_geomean" "cycles" (List.assoc "sim_cycles_geomean" exact);
        metric ~samples:(List.length distinct) "code_size_instrs" "instrs" (List.assoc "code_size_instrs" exact);
      ]
  in
  let layers =
    if not traced then []
    else begin
      let trace = Option.get obs.Obs.trace in
      let roots = Spans.of_events (Slp_obs.Trace.events trace) in
      let totals = Hashtbl.create 16 in
      let wall = ref 0.0 in
      (* One root span per job, in job order; layer times are scaled by
         the job's calibration like its wall time. *)
      List.iter2
        (fun (root : Spans.t) s ->
          let scale = Calib.scale ~cal:s.cal in
          wall := !wall +. scale (Spans.duration root);
          let scheme = Option.value (Spans.arg root "scheme") ~default:"" in
          List.iter
            (fun (layer, secs) ->
              Hashtbl.replace totals layer (scale secs +. Option.value (Hashtbl.find_opt totals layer) ~default:0.0))
            (Layers.attribute ~scheme root))
        roots samples;
      let per_job layer = ms (Option.value (Hashtbl.find_opt totals layer) ~default:0.0) /. float_of_int (max 1 n) in
      let sources = List.map (fun (b : Suite.t) -> (b.Suite.name, b.Suite.source)) Suite.all in
      let depend_s =
        List.filter_map
          (fun s -> match s.outcome with Ok (c, _) -> Some (time_depend c.P.reference) | Error _ -> None)
          samples
      in
      List.map (fun layer -> Measure.metric ~samples:n layer "ms" (per_job layer)) Layers.span_layers
      @ Measure.
          [
            metric ~samples:(List.length roots) "pipeline.unattributed_frac" "frac"
              (Option.value (Hashtbl.find_opt totals "pipeline.unattributed_ms") ~default:0.0 /. !wall);
            metric ~samples:(List.length depend_s) "depend.ms" "ms" (ms (Stats.mean depend_s));
            metric ~samples:(List.length sources) "frontend.parse_ms" "ms" (ms (time_parse sources));
            metric ~samples:n "pipeline.alloc_mwords" "Mwords"
              (Stats.mean (List.map (fun s -> s.minor_words /. 1e6) samples));
          ]
      @ List.filter_map
          (fun (k, v) -> if String.contains k '.' then Some (Measure.metric k (Layers.unit_of k) v) else None)
          exact
    end
  in
  ({ !m with Measure.metrics = e2e @ layers; exact }, obs)
