(** The supervised worker pool.

    Jobs flow: [submit] parses and keys the spec, answers straight
    from the cache on a hit, sheds with [Overloaded] when the bounded
    queue is full, and otherwise enqueues.  Worker domains pull jobs
    and run {!Job.run}; a structured failure is retried in place with
    capped exponential backoff (seeded jitter, so tests are
    deterministic) up to [max_attempts], after which the key is
    quarantined and the job falls back to {!Job.run_degraded}.  A
    worker that dies under a job ({!Fault.Worker_killed} escaping) is
    detected by the supervisor domain, which joins the corpse, spawns
    a replacement, and re-enqueues the job with its attempt count
    advanced — a dying worker costs a retry, never a lost job.

    Every reply — success, degraded, shed — goes through the job's
    callback exactly once; a callback that raises {!Fault.Client_gone}
    (client vanished mid-reply) is counted and swallowed, and since
    successful payloads are cached before delivery, the client can
    replay the request and hit the cache.

    Deadlines are cooperative: {!Job.run} arms them over the service
    clock and the pipeline checks them at stage boundaries and fuel
    ticks.  A breach is a structured [BAIL16] failure and takes the
    ordinary retry path; the supervisor cannot preempt a domain. *)

type config = {
  workers : int;
  queue_depth : int;  (** Jobs beyond this are shed, not queued. *)
  max_attempts : int;  (** Attempts before quarantine. *)
  backoff : Slp_util.Backoff.policy;
  sleep : float -> unit;
      (** Backoff sleeper; tests pass [ignore] to retry instantly. *)
  seed : int;  (** Seeds the jitter PRNG. *)
  default_timeout : float option;
      (** Applied when a spec carries no [timeout]. *)
}

val default_config : config
(** 2 workers, depth 64, 3 attempts, {!Slp_util.Backoff.default},
    [Unix.sleepf], seed 42, no default timeout. *)

type t

val create : ?config:config -> ?telem:Telemetry.t -> cache:Cache.t -> unit -> t
(** [telem] defaults to a fresh {!Telemetry.create} bundle; the pool
    registers a collect hook on its registry that refreshes queue,
    worker, and cache gauges at every scrape. *)

val submit :
  ?trace_id:string -> t -> id:int -> op:Proto.jobop -> spec:Proto.spec ->
  reply:(Proto.reply -> unit) -> unit
(** Never blocks for the job itself (cache hits, sheds and parse
    failures reply on the caller's thread; queued jobs reply from a
    worker or supervisor thread — the callback must be thread-safe). *)

val run_sync :
  t -> ?id:int -> ?trace_id:string -> op:Proto.jobop -> spec:Proto.spec ->
  unit -> Proto.reply
(** Submit and wait for this job's reply — the in-process convenience
    used by benchmarks and tests. *)

val pause : t -> unit
(** Test affordance: workers finish their current job and then hold
    before picking up another, so a test can fill the queue to a known
    depth.  Not a fault point — nothing is lost or reordered. *)

val resume : t -> unit

val quarantined : t -> (Ckey.t * string) list
(** Quarantined keys with the job name first seen, sorted by key. *)

val drain : t -> unit
(** Block until no job is queued or in flight. *)

val shutdown : t -> unit
(** [drain], then stop and join every worker and the supervisor.
    Idempotent. *)

type health = {
  live_workers : int;  (** Worker slots not currently dead. *)
  queue_len : int;
  queue_limit : int;
  stopping : bool;
}

val health : t -> health
(** Readiness inputs: the server reports ready iff workers are live,
    the queue is below the shed threshold, and nothing is stopping. *)

val metrics : t -> Slp_obs.Metric.t
val telemetry : t -> Telemetry.t
val cache : t -> Cache.t
