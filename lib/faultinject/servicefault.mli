(** Seeded fault matrix for the compile service layer.

    The sibling {!Faultinject} matrix proves the {e pipeline} recovers
    from faults inside compilation; this one proves the {e service}
    around it — worker pool and its one retry/quarantine path, reply
    path, content-addressed cache — holds its contract under the
    faults a daemon actually meets: a worker dying mid-job (and
    recovering in place), the clock jumping past a deadline, a cache
    entry rotting on disk, a client vanishing before its reply.

    Every case asserts the service obligation from the issue: the
    reply is either {b bit-identical} to a one-shot
    [Job.run] oracle for the same spec, or a {b catalogued degraded}
    reply — and never a hang, a lost job, or a silently wrong
    answer. *)

type point = Kill_worker | Clock_skip | Cache_corrupt | Client_drop

val point_name : point -> string
val all_points : point list

type outcome = {
  kernel : string;
  machine : string;
  point : point;
  status : string;  (** Wire status of the decisive reply. *)
  attempts : int;
  codes : string list;  (** Reason codes across all replies. *)
  expected : string;  (** Code (or ["-"]) the fault must surface as. *)
  code_seen : bool;
  identical : bool;  (** Every delivered payload matched the oracle. *)
  no_lost_jobs : bool;
      (** Every submission was answered and the pool drained to
          idle. *)
  ok : bool;
}

val run_case :
  ?scheme:Slp_pipeline.Pipeline.scheme ->
  dir:string ->
  machine:Slp_machine.Machine.t ->
  point:point ->
  Slp_ir.Program.t ->
  outcome
(** One kernel x one service fault on a fresh single-worker pool with
    a fresh cache under [dir] (default scheme [Global_layout]).  Runs
    the unfaulted oracle first, then the faulted service, then the
    point-specific replay probes.  Never raises; never hangs (every
    wait is on a pool that provably drains). *)

val run_matrix :
  ?machines:Slp_machine.Machine.t list ->
  ?points:point list ->
  ?kernels:Slp_benchmarks.Suite.t list ->
  dir:string ->
  unit ->
  outcome list
(** Default: all suite kernels x all four points on
    [intel_dunnington] (pass both machines for the full grid). *)

val all_ok : outcome list -> bool
val failures : outcome list -> outcome list
val report_json : outcome list -> string
(** Same shape as {!Faultinject.report_json}: [{cases; failures;
    outcomes}] — uploaded by the CI serve-smoke job. *)
