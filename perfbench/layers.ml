(* The per-layer metrics: their names, units, and the end-to-end metric
   each should move, plus the attribution of pipeline stage spans to
   layers.  Every span's self time lands in exactly one layer, so the
   span layers of a job add up to its wall time; what no stage span
   covers is [pipeline.unattributed_ms]. *)

type layer = { name : string; unit_ : string; moves : string }

let l name unit_ moves = { name; unit_; moves }

let catalogue =
  [
    l "frontend.parse_ms" "ms" "setup_s on suite_exec/compile_wide; job_p50_ms on serve_mixed (every hit re-parses)";
    l "transform.prepare_ms" "ms" "job_p50_ms on compile_wide";
    l "depend.ms" "ms" "job_p50_ms on compile_wide";
    l "slp_core.grouping_ms" "ms" "jobs_per_s and job_p90_ms on compile_wide; under 1% of suite_exec";
    l "slp_core.schedule_ms" "ms" "job_p50_ms on compile_wide";
    l "slp_core.estimate_ms" "ms" "job_p50_ms on compile_wide";
    l "slp_core.optimal_ms" "ms" "jobs_per_s on compile_wide; job_p90_ms on suite_exec";
    l "slp_core.plan_self_ms" "ms" "jobs_per_s on compile_wide";
    l "baseline.plan_ms" "ms" "job_p50_ms on compile_wide";
    l "layout.layout_ms" "ms" "job_p90_ms on suite_exec";
    l "layout.arbitrate_ms" "ms" "job_p90_ms on suite_exec";
    l "codegen.lower_ms" "ms" "job_p50_ms on compile_wide";
    l "codegen.regalloc_ms" "ms" "job_p50_ms on compile_wide";
    l "verify.verify_ms" "ms" "job_p50_ms on compile_wide";
    l "vm.execute_ms" "ms" "jobs_per_s and job_p50_ms on suite_exec; nothing on compile_wide";
    l "vm.sim_instrs" "count" "sim_cycles_geomean";
    l "codegen.visa_instrs" "count" "code_size_instrs";
    l "codegen.spills" "count" "code_size_instrs and sim_cycles_geomean";
    l "slp_core.solver_bails" "count" "sim_cycles_geomean and code_size_instrs";
    l "pipeline.alloc_mwords" "Mwords" "jobs_per_s on suite_exec/compile_wide and serve_mixed";
    l "pipeline.unattributed_ms" "ms" "coverage only";
    l "pipeline.unattributed_frac" "frac" "coverage only";
    l "serve.rx_ms" "ms" "job_p50_ms on serve_mixed";
    l "serve.ckey_us" "us" "job_p50_ms on serve_mixed";
    l "serve.cache_find_us" "us" "job_p50_ms on serve_mixed";
    l "serve.proto_us" "us" "job_p50_ms on serve_mixed";
    l "serve.ipc_ms" "ms" "job_p50_ms on serve_mixed";
    l "serve.queue_wait_p50_ms" "ms" "job_p90_ms on serve_mixed";
    l "serve.queue_wait_p99_ms" "ms" "job_p90_ms on serve_mixed";
    l "serve.job_ms" "ms" "jobs_per_s and job_p90_ms on serve_mixed";
    l "serve.cache_store_ms" "ms" "jobs_per_s and job_p90_ms on serve_mixed";
    l "serve.worker_slowdown" "ratio" "jobs_per_s on serve_mixed (the multi-domain overhead)";
    l "serve.hit_frac" "frac" "job_p50_ms and failed_frac on serve_mixed";
    l "serve.retries" "count" "job_p50_ms and failed_frac on serve_mixed";
    l "obs.trace_overhead_frac" "frac" "none";
  ]

let unit_of name =
  match List.find_opt (fun l -> l.name = name) catalogue with Some l -> l.unit_ | None -> "?"

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* [scheme] is the wire name ({!Slp_serve.Proto.scheme_to_string}). *)
let layer_of_span ~scheme name =
  if has_prefix "grouping:" name then "slp_core.grouping_ms"
  else if has_prefix "schedule:" name then "slp_core.schedule_ms"
  else if has_prefix "estimate:" name then "slp_core.estimate_ms"
  else
    match name with
    | "prepare" -> "transform.prepare_ms"
    | "plan" -> (
        match scheme with
        | "optimal" -> "slp_core.optimal_ms"
        | "native" | "slp" -> "baseline.plan_ms"
        | _ -> "slp_core.plan_self_ms")
    | "layout" -> "layout.layout_ms"
    | "arbitrate" -> "layout.arbitrate_ms"
    | "lower" -> "codegen.lower_ms"
    | "regalloc" -> "codegen.regalloc_ms"
    | "verify" -> "verify.verify_ms"
    | "execute" -> "vm.execute_ms"
    | _ -> "pipeline.unattributed_ms"

let span_layers =
  [
    "transform.prepare_ms"; "slp_core.grouping_ms"; "slp_core.schedule_ms"; "slp_core.estimate_ms";
    "slp_core.optimal_ms"; "slp_core.plan_self_ms"; "baseline.plan_ms"; "layout.layout_ms";
    "layout.arbitrate_ms"; "codegen.lower_ms"; "codegen.regalloc_ms"; "verify.verify_ms";
    "vm.execute_ms"; "pipeline.unattributed_ms";
  ]

(* Self seconds per layer over one job's span tree, rooted at the job
   span (whose own self time is the unattributed part). *)
let attribute ~scheme (root : Spans.t) =
  let acc = Hashtbl.create 16 in
  Spans.iter
    (fun s ->
      let layer = layer_of_span ~scheme s.Spans.name in
      let prev = Option.value (Hashtbl.find_opt acc layer) ~default:0.0 in
      Hashtbl.replace acc layer (prev +. Spans.self_time s))
    root;
  List.map (fun layer -> (layer, Option.value (Hashtbl.find_opt acc layer) ~default:0.0)) span_layers
