(** Service-layer fault injection.

    The pipeline's {!Slp_faultinject} hooks fire {e inside} compilation
    passes; these points fire in the machinery {e around} them — the
    worker pool, the cache, the reply path — which is where a service
    actually breaks in production.  Each armed point is one-shot (like
    [Trap.with_fault]): it decrements on every opportunity and fires
    exactly once when the counter reaches zero, so a seeded matrix can
    aim a fault at the n-th job deterministically.

    Points:
    - [Kill_worker n]: the n-th job a worker picks up raises
      {!Worker_killed} mid-compile (at the ["prepare"] stage hook),
      simulating the worker dying under the job: the exception
      escapes the attempt, and the worker recovers in place.
    - [Clock_skip (s, n)]: the service clock jumps forward [s] seconds
      at the n-th stage-boundary read, blowing any armed deadline.
    - [Corrupt_store n]: the n-th cache write flips a byte of the
      stored payload, so the integrity digest no longer matches.
    - [Drop_client n]: the n-th reply delivery raises {!Client_gone}
      before the bytes reach the client (the job itself completed and
      was cached). *)

exception Worker_killed
exception Client_gone

type point =
  | Kill_worker of int
  | Clock_skip of float * int
  | Corrupt_store of int
  | Drop_client of int

val arm : point -> unit
(** Replaces any armed point of the same constructor. *)

val disarm : unit -> unit
(** Clear every armed point and pending skew. *)

val now : unit -> float
(** {!Slp_obs.Clock.now} plus any accumulated injected skew. *)

val stage_hook : string -> unit
(** Installed as the pipeline [on_stage] hook inside workers: applies
    [Kill_worker] and [Clock_skip] at the ["prepare"] boundary. *)

val store_hook : bytes -> unit
(** Called by the cache on the payload bytes about to be written;
    mutates them in place when [Corrupt_store] fires. *)

val reply_hook : unit -> unit
(** Called before a reply is handed back; raises {!Client_gone} when
    [Drop_client] fires. *)
