(** The slpd wire protocol: line-delimited JSON over a Unix socket.

    One request per line, one reply per line; replies carry the
    request's [id] and may arrive out of submission order (jobs finish
    when they finish).  The grammar is documented in DESIGN.md's
    "Compile service" section; encoding and decoding both live here so
    the daemon, the client, and the tests share one definition. *)

type jobop = Compile | Execute

val jobop_name : jobop -> string

type spec = {
  kernel : string;  (** Kernel source text (the frontend language). *)
  name : string;  (** Job label; not part of the cache key. *)
  scheme : Slp_pipeline.Pipeline.scheme;
  machine : Slp_machine.Machine.t;
  unroll : int option;
  max_steps : int option;
  solver_steps : int option;
  timeout : float option;  (** Per-job wall-clock deadline, seconds. *)
  cores : int;
  seed : int;
}

val default_spec : kernel:string -> name:string -> spec
(** Global scheme, Intel machine, no budgets, 1 core, seed 42. *)

type op =
  | Job of jobop * spec
  | Ping
  | Stats
  | Metrics  (** Prometheus text exposition; payload is one string. *)
  | Health  (** Liveness/readiness snapshot. *)
  | Shutdown  (** Drain-then-exit, same as SIGTERM. *)

type request = { id : int; op : op }

type status =
  | Ok  (** Payload is the full result. *)
  | Degraded
      (** The job was quarantined after repeated failures and fell
          back to [compile_resilient] scalar degradation; [errors]
          carries every catalogued failure. *)
  | Overloaded  (** Queue full — the job was shed, not run. *)
  | Draining  (** Submitted during shutdown; not run. *)
  | Bad_request  (** Malformed request line or unknown fields. *)

val status_name : status -> string

type reply = {
  id : int;
  status : status;
  cached : bool;  (** Served from the content-addressed cache. *)
  quarantined : bool;
  attempts : int;  (** Attempts consumed (0 for cache hits and sheds). *)
  errors : Slp_util.Slp_error.t list;
      (** Every structured error seen across attempts, catalogue
          order preserved; non-empty on [Degraded], and may accompany
          [Ok] when earlier attempts failed before a retry
          succeeded. *)
  payload : Slp_obs.Json.t;  (** Op-specific result; [Null] when none. *)
}

val ok_reply : ?cached:bool -> ?attempts:int -> ?errors:Slp_util.Slp_error.t list -> id:int -> Slp_obs.Json.t -> reply
val error_reply : ?errors:Slp_util.Slp_error.t list -> ?message:string -> id:int -> status -> reply

val scheme_of_string : string -> Slp_pipeline.Pipeline.scheme option
val scheme_to_string : Slp_pipeline.Pipeline.scheme -> string
val machine_of_string : string -> Slp_machine.Machine.t option
val machine_to_string : Slp_machine.Machine.t -> string
(** {!Slp_pipeline.Pipeline.scheme_of_string},
    {!Slp_pipeline.Pipeline.scheme_to_string},
    {!Slp_machine.Machine.of_string} and
    {!Slp_machine.Machine.to_string}: the wire names are the
    command-line names. *)

val request_to_line : request -> string
(** One line, no trailing newline. *)

val request_of_line : string -> (request, int * string) result
(** The error carries the request id when one could be read (so the
    server can address its [Bad_request] reply), else [-1]. *)

val reply_to_line : reply -> string
val reply_of_line : string -> (reply, string) result
