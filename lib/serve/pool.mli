(** The worker pool.

    Jobs flow: [submit] parses and keys the spec, answers straight
    from the cache on a hit, sheds with [Overloaded] when the bounded
    queue is full, and otherwise enqueues.  Worker domains pull jobs
    and run {!Job.run}.  An attempt fails in one of two ways: {!Job.run}
    returns a structured error, or an exception escapes the attempt (the
    injected {!Fault.Worker_killed}, or any other), which counts as a
    worker death and records a BAIL13 error.  Both take one path: the
    job is retried in place with capped exponential backoff
    ({!Slp_util.Backoff.default}, jitter seeded 42, so tests are
    deterministic) up to [max_attempts], after which the key is
    quarantined and the job falls back to {!Job.run_degraded}.  The
    worker itself carries on, and its loop ends only at {!shutdown}:
    a failing job costs retries, never a lost job or a lost worker.

    Every reply — success, degraded, shed — goes through the job's
    callback exactly once; a callback that raises {!Fault.Client_gone}
    (client vanished mid-reply) is counted [dropped] and swallowed (a
    callback that returns is the owner's to count), and since
    successful payloads are cached before delivery, the client can
    replay the request and hit the cache.  A cache write that fails
    ({!Cache.store} never raises) leaves the reply [ok] and uncached.

    Deadlines are cooperative: {!Job.run} arms them over the service
    clock and the pipeline checks them at stage boundaries and fuel
    ticks.  A breach is a structured [BAIL16] failure and takes the
    ordinary retry path; nothing preempts a domain. *)

type config = {
  workers : int;
  queue_depth : int;  (** Jobs beyond this are shed, not queued. *)
  max_attempts : int;  (** Attempts before quarantine. *)
  sleep : float -> unit;
      (** Backoff sleeper; tests pass [ignore] to retry instantly. *)
  default_timeout : float option;
      (** Applied when a spec carries no [timeout]. *)
}

val default_config : config
(** 2 workers, depth 64, 3 attempts, [Unix.sleepf], no default
    timeout. *)

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
    worker domain — the callback must be thread-safe). *)

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
(** [drain], then stop and join every worker.  Idempotent. *)

type health = {
  live_workers : int;  (** Worker loops still running. *)
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
