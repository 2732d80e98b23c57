(* The daemon's telemetry bundle: one registry of typed instruments,
   one structured log, and (optionally) one trace hub, created
   together and threaded through the pool and the reactor.

   Instrument families are registered once here, and the hot paths
   hold pre-resolved handles where the label set is static.  Label
   cardinality is bounded by construction: schemes and outcomes are
   closed enumerations, never client-supplied strings. *)

module Clock = Slp_obs.Clock
module Metric = Slp_obs.Metric
module Log = Slp_obs.Log
module Tracehub = Slp_obs.Tracehub
module Obs = Slp_obs.Obs

type t = {
  registry : Metric.t;
  log : Log.t;
  hub : Tracehub.t option;
  started_at : float;
  jobs : Metric.Counter.family;  (* jobs_total{scheme,outcome} *)
  retries : Metric.Counter.family;  (* job_retries_total{reason} *)
  replies : Metric.Counter.family;  (* replies_total{outcome} *)
  worker_restarts : Metric.Counter.handle;
  quarantined_total : Metric.Counter.handle;
  latency : Metric.Histogram.family;  (* job_latency_seconds{op} *)
  queue_wait : Metric.Histogram.handle;
  queue_depth : Metric.Gauge.handle;
  in_flight : Metric.Gauge.handle;
  workers_live : Metric.Gauge.handle;
  uptime : Metric.Gauge.handle;
}

let create ?log ?hub ?registry () =
  let registry = match registry with Some r -> r | None -> Metric.create () in
  let log = match log with Some l -> l | None -> Log.create () in
  let started_at = Clock.now () in
  let t =
    {
      registry;
      log;
      hub;
      started_at;
      jobs =
        Metric.Counter.family registry ~help:"Jobs by scheme and outcome"
          ~labels:[ "scheme"; "outcome" ] "jobs_total";
      retries =
        Metric.Counter.family registry ~help:"Job retries by reason"
          ~labels:[ "reason" ] "job_retries_total";
      replies =
        Metric.Counter.family registry ~help:"Reply routing outcomes"
          ~labels:[ "outcome" ] "replies_total";
      worker_restarts =
        Metric.Counter.plain registry
          ~help:"Worker deaths recovered in place (an exception escaped a job)"
          "worker_restarts_total";
      quarantined_total =
        Metric.Counter.plain registry ~help:"Job keys quarantined"
          "jobs_quarantined_total";
      latency =
        Metric.Histogram.family registry
          ~help:"Enqueue-to-reply latency by job op" ~labels:[ "op" ]
          "job_latency_seconds";
      queue_wait =
        Metric.Histogram.plain registry
          ~help:"Time jobs spend queued before a worker picks them up"
          "queue_wait_seconds";
      queue_depth =
        Metric.Gauge.plain registry ~help:"Jobs currently queued" "queue_depth";
      in_flight =
        Metric.Gauge.plain registry ~help:"Jobs queued or running"
          "jobs_in_flight";
      workers_live =
        Metric.Gauge.plain registry ~help:"Worker loops still running"
          "workers_live";
      uptime =
        Metric.Gauge.plain registry ~help:"Seconds since telemetry start"
          "uptime_seconds";
    }
  in
  Metric.on_collect registry (fun () ->
      Metric.Gauge.set t.uptime (Clock.now () -. started_at));
  t

let registry t = t.registry
let log t = t.log
let started_at t = t.started_at

(* -- hot-path helpers ------------------------------------------------- *)

let job t ~scheme ~outcome =
  Metric.Counter.incr (Metric.Counter.handle t.jobs [ scheme; outcome ])

let retry t ~reason =
  Metric.Counter.incr (Metric.Counter.handle t.retries [ reason ])

let reply t ~outcome =
  Metric.Counter.incr (Metric.Counter.handle t.replies [ outcome ])

let worker_restart t = Metric.Counter.incr t.worker_restarts
let quarantine t = Metric.Counter.incr t.quarantined_total

let observe_latency t ~op seconds =
  Metric.Histogram.observe (Metric.Histogram.handle t.latency [ op ]) seconds

let observe_queue_wait t seconds = Metric.Histogram.observe t.queue_wait seconds

let set_queue_depth t v = Metric.Gauge.set t.queue_depth (float_of_int v)
let set_in_flight t v = Metric.Gauge.set t.in_flight (float_of_int v)
let set_workers_live t v = Metric.Gauge.set t.workers_live (float_of_int v)

(* -- tracing ---------------------------------------------------------- *)

let span t ?args name f =
  match t.hub with None -> f () | Some hub -> Tracehub.span hub ?args name f

(* An [Obs.t] whose trace is the calling domain's row of the hub, so
   pipeline stage spans land on the worker's own timeline. *)
let obs t =
  match t.hub with
  | None -> Obs.none
  | Some hub -> { Obs.none with Obs.trace = Some (Tracehub.trace hub) }
