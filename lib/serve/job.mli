(** One job attempt, and its degraded fallback.

    [run] is what a pool worker executes: a single compile (optionally
    followed by execution) of an already-parsed kernel, under the
    spec's wall-clock deadline and with the service fault hooks
    installed.  Its payload is deterministic — memory contents and
    vector code are folded into FNV digests, and nothing wall-clock
    dependent (compile seconds, timestamps) is included — so a cached
    payload, a retried payload, and a fresh one-shot payload for the
    same key are bit-identical, which is exactly what the fault matrix
    asserts. *)

val unroll : Proto.spec -> int
(** The unroll factor a spec compiles with: its own, or
    {!Slp_pipeline.Pipeline.default_unroll} of its machine. *)

val options : Proto.spec -> Slp_pipeline.Pipeline.options
(** {!Slp_pipeline.Pipeline.default_options} with the spec's step
    budget and, when it names one, its solver budget.  {!run},
    {!run_degraded} and {!Ckey} all read {!unroll} and [options]. *)

val run :
  ?clock:(unit -> float) ->
  ?obs:Slp_obs.Obs.t ->
  op:Proto.jobop ->
  spec:Proto.spec ->
  Slp_ir.Program.t ->
  (Slp_obs.Json.t, Slp_util.Slp_error.t) result
(** One attempt.  [clock] (default {!Fault.now}, which folds injected
    skew in) seeds the deadline when [spec.timeout] is set; [obs]
    (default off) carries the worker's trace row so pipeline stage
    spans, and an Execute job's ["execute"] span around its VM runs
    ({!Slp_pipeline.Pipeline.execute_with_memory}) and ["digest"] span
    around its memory digest, land on the job's timeline.  Pipeline and deadline failures
    come back as structured errors; {!Fault.Worker_killed} is
    re-raised, so the pool counts it as a worker death like any other
    exception that escapes an attempt. *)

val named : spec:Proto.spec -> Slp_obs.Json.t -> Slp_obs.Json.t
(** A payload with its ["name"] field set to [spec]'s name, every other
    field and the field order unchanged: how the pool serves a cached
    payload, computed under another job's name, to the job that asked.
    Identical bytes when the names agree. *)

val run_degraded :
  op:Proto.jobop ->
  spec:Proto.spec ->
  Slp_ir.Program.t ->
  Slp_obs.Json.t * Slp_util.Slp_error.t list
(** Quarantine fallback: [compile_resilient] scalar degradation with
    no deadline, hooks, or faults.  Never raises; the errors are the
    bailouts the degradation recorded. *)
