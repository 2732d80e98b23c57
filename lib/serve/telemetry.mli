(** The daemon's telemetry bundle: typed metrics, structured log, and
    the cross-domain trace hub, created together and threaded through
    {!Pool} and {!Server}.

    Instrument families are fixed here (the label catalogue lives in
    DESIGN.md); the pool reports through the helpers below rather than
    touching the registry, so series names and label sets stay in one
    place.  All helpers are safe from any domain: counters and
    histogram cells are atomics, spans record on the calling domain's
    own trace row. *)

type t

val create :
  ?log:Slp_obs.Log.t ->
  ?hub:Slp_obs.Tracehub.t ->
  ?registry:Slp_obs.Metric.t ->
  unit ->
  t
(** Fresh registry (with the service families pre-registered), default
    [Info] log, and no trace hub unless one is supplied. *)

val registry : t -> Slp_obs.Metric.t
val log : t -> Slp_obs.Log.t
val started_at : t -> float

val job : t -> scheme:string -> outcome:string -> unit
(** Bump [jobs_total{scheme,outcome}]; outcome is one of ok / cached /
    degraded / shed / draining / bad. *)

val retry : t -> reason:string -> unit
(** [job_retries_total{reason}]: failure or worker_death. *)

val reply : t -> outcome:string -> unit
(** [replies_total{outcome}]: each reply counted once, where its fate
    is known.  [delivered]: slpd's reactor wrote its line in full.
    [unroutable]: its client was gone when it was queued, or left with
    the line still queued.  [dropped]: the pool's reply callback
    raised.  A reply the pool hands to an in-process callback that
    returns is not counted. *)

val worker_restart : t -> unit
val quarantine : t -> unit

val observe_latency : t -> op:string -> float -> unit
(** [job_latency_seconds{op}]: enqueue-to-reply seconds. *)

val observe_queue_wait : t -> float -> unit

val set_queue_depth : t -> int -> unit
val set_in_flight : t -> int -> unit
val set_workers_live : t -> int -> unit

val span : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Span on the calling domain's trace row; just runs [f] without a
    hub. *)

val obs : t -> Slp_obs.Obs.t
(** An observability bundle whose trace is the calling domain's hub
    row — what workers pass to {!Job.run} so pipeline stage spans land
    on the right timeline.  {!Slp_obs.Obs.none} without a hub. *)
