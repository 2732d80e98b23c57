(** The slpd daemon loop: a [select]-based reactor on a Unix socket.

    One thread owns all sockets; worker domains never touch a fd.
    Pool replies land in per-client output queues via a callback and a
    self-pipe wakes the reactor to flush them, so a slow or vanished
    client can never block a worker.  Clients are addressed by a
    generation token, not their fd, so a reply to a disconnected
    client is counted and dropped rather than written to whoever
    inherited the descriptor.

    SIGTERM, SIGINT, and the [shutdown] op all trigger the same
    graceful drain: stop accepting work (new jobs get [Draining]),
    wait for every in-flight job, flush outstanding replies, then tear
    the pool down and unlink the socket. *)

val stats_json : Pool.t -> Slp_obs.Json.t
(** The [stats] op's payload, also printed by [slpd] on exit: uptime,
    queue and worker state, the full typed registry ("metrics"), cache
    stats with hit rate, log counts, and quarantined keys. *)

exception Socket_in_use of string
(** The socket path on which a live daemon already answers. *)

val run : pool:Pool.t -> socket:string -> unit -> unit
(** Serve on the Unix socket [socket] (listen backlog 16) until a
    shutdown trigger, then drain and return.  Installs SIGTERM/SIGINT
    handlers for the duration and ignores SIGPIPE.

    An existing socket file is probed with a connect first.  If a live
    daemon answers, [run] raises {!Socket_in_use} before touching the
    socket or the pool (the caller still owns the pool and shuts it
    down).  If the connect is refused, the file is stale and is
    replaced. *)
