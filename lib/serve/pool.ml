module E = Slp_util.Slp_error
module Backoff = Slp_util.Backoff
module Prng = Slp_util.Prng
module Json = Slp_obs.Json
module Clock = Slp_obs.Clock
module Log = Slp_obs.Log

type config = {
  workers : int;
  queue_depth : int;
  max_attempts : int;
  sleep : float -> unit;
  default_timeout : float option;
}

let default_config =
  {
    workers = 2;
    queue_depth = 64;
    max_attempts = 3;
    sleep = Unix.sleepf;
    default_timeout = None;
  }

type jobrec = {
  job_id : int;
  trace_id : string;
  op : Proto.jobop;
  spec : Proto.spec;
  key : Ckey.t;
  prog : Slp_ir.Program.t;
  reply : Proto.reply -> unit;
  mutable enqueued_at : float;
  mutable attempts : int;
  mutable errors : E.t list;  (** Reverse chronological. *)
}

type t = {
  config : config;
  job_cache : Cache.t;
  telem : Telemetry.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;
  queue : jobrec Queue.t;
  mutable in_flight : int;  (** Queued + running, until the reply lands. *)
  mutable paused : bool;
  mutable stopping : bool;
  mutable live : int;  (** Worker loops still running. *)
  mutable workers : unit Domain.t list;  (** Taken, and joined, by [shutdown]. *)
  prng : Prng.t;  (** Jitter source; guarded by [mutex]. *)
  quarantine : (Ckey.t, string) Hashtbl.t;  (** Guarded by [mutex]. *)
  seq : int Atomic.t;  (** Fallback trace-id counter. *)
}

let metrics t = Telemetry.registry t.telem
let telemetry t = t.telem
let cache t = t.job_cache
let logger t = Telemetry.log t.telem

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let backoff_delay t ~attempt =
  locked t (fun () -> Backoff.delay Backoff.default ~prng:t.prng ~attempt)

type health = {
  live_workers : int;
  queue_len : int;
  queue_limit : int;
  stopping : bool;
}

let health t =
  locked t (fun () ->
      {
        live_workers = t.live;
        queue_len = Queue.length t.queue;
        queue_limit = t.config.queue_depth;
        stopping = t.stopping;
      })

(* Every reply funnels through here so client-disconnect faults are
   observed (and survived) uniformly: the job's work is already done,
   and cached unless the cache write failed, by the time the callback
   runs, so a vanished client costs nothing but the reply bytes.  A
   callback that returns has taken the reply; where it goes from there
   is known to the callback's owner (slpd's reactor counts it when the
   line is written or lost), so only a raising callback is counted
   here. *)
let guard_reply t cb reply =
  match
    Fault.reply_hook ();
    cb reply
  with
  | () -> ()
  | exception _ ->
      Telemetry.reply t.telem ~outcome:"dropped";
      Log.warn (logger t) "reply_dropped"
        [ ("id", Json.Num (float_of_int reply.Proto.id)) ]

(* Reply for an in-flight job: deliver, then retire it from the
   drain accounting. *)
let deliver t (job : jobrec) reply =
  Telemetry.observe_latency t.telem
    ~op:(Proto.jobop_name job.op)
    (Clock.now () -. job.enqueued_at);
  guard_reply t job.reply reply;
  locked t (fun () ->
      t.in_flight <- t.in_flight - 1;
      if t.in_flight = 0 then Condition.broadcast t.idle)

let job_fields (job : jobrec) =
  [
    ("trace", Json.Str job.trace_id);
    ("job", Json.Str job.spec.Proto.name);
    ("id", Json.Num (float_of_int job.job_id));
  ]

let quarantine_and_degrade t (job : jobrec) =
  let fresh =
    locked t (fun () ->
        if Hashtbl.mem t.quarantine job.key then false
        else (
          Hashtbl.replace t.quarantine job.key job.spec.Proto.name;
          true))
  in
  if fresh then (
    Telemetry.quarantine t.telem;
    Log.error (logger t) "quarantine"
      (job_fields job @ [ ("key", Json.Str (Ckey.to_hex job.key)) ]));
  let payload, fallback_errors = Job.run_degraded ~op:job.op ~spec:job.spec job.prog in
  Telemetry.job t.telem
    ~scheme:(Proto.scheme_to_string job.spec.Proto.scheme)
    ~outcome:"degraded";
  deliver t job
    {
      Proto.id = job.job_id;
      status = Proto.Degraded;
      cached = false;
      quarantined = true;
      attempts = job.attempts;
      errors = List.rev job.errors @ fallback_errors;
      payload;
    }

let is_quarantined t key = locked t (fun () -> Hashtbl.mem t.quarantine key)

(* One attempt: compute the payload and store it.  Whatever escapes
   the attempt, the injected [Fault.Worker_killed] or any other
   exception, is a worker death: the worker logs it and lives on, and
   the attempt fails with BAIL13 as a structured failure would with
   its own error.  The [string] names the retry reason. *)
let attempt t (job : jobrec) =
  match
    let r = Job.run ~obs:(Telemetry.obs t.telem) ~op:job.op ~spec:job.spec job.prog in
    Result.iter (fun p -> Cache.store t.job_cache job.key (Json.to_string p)) r;
    r
  with
  | Result.Ok payload -> Result.Ok payload
  | Result.Error err -> Result.Error ("failure", err)
  | exception exn ->
      Telemetry.worker_restart t.telem;
      Log.error (logger t) "worker_death"
        (job_fields job @ [ ("exn", Json.Str (Printexc.to_string exn)) ]);
      Result.Error
        ( "worker_death",
          E.make ~pass:E.Pipeline E.Internal
            "worker died mid-job; worker restarted, job retried" )

(* Attempts run in place until one succeeds or [max_attempts] have
   failed; then the key is quarantined. *)
let rec run_job t (job : jobrec) =
  if is_quarantined t job.key then quarantine_and_degrade t job
  else
    let outcome = attempt t job in
    job.attempts <- job.attempts + 1;
    match outcome with
    | Result.Ok payload ->
        Telemetry.job t.telem
          ~scheme:(Proto.scheme_to_string job.spec.Proto.scheme)
          ~outcome:"ok";
        Log.debug (logger t) "job_ok"
          (job_fields job @ [ ("attempts", Json.Num (float_of_int job.attempts)) ]);
        deliver t job
          (Proto.ok_reply ~attempts:job.attempts ~errors:(List.rev job.errors)
             ~id:job.job_id payload)
    | Result.Error (reason, err) ->
        job.errors <- err :: job.errors;
        if job.attempts >= t.config.max_attempts then quarantine_and_degrade t job
        else (
          Telemetry.retry t.telem ~reason;
          Log.warn (logger t) "job_retry"
            (job_fields job
            @ [
                ("attempt", Json.Num (float_of_int job.attempts));
                ("error", Json.Str (E.to_string err));
              ]);
          t.config.sleep (backoff_delay t ~attempt:job.attempts);
          run_job t job)

(* A worker loop ends only when [shutdown] has drained the queue. *)
let worker_loop (t : t) =
  let rec next () =
    if t.stopping && Queue.is_empty t.queue then None
    else if Queue.is_empty t.queue || (t.paused && not t.stopping) then (
      Condition.wait t.nonempty t.mutex;
      next ())
    else Some (Queue.pop t.queue)
  in
  let rec loop () =
    match locked t next with
    | None -> ()
    | Some job ->
        Telemetry.observe_queue_wait t.telem (Clock.now () -. job.enqueued_at);
        Telemetry.span t.telem
          ~args:
            [
              ("trace", job.trace_id);
              ("kernel", job.spec.Proto.name);
              ("scheme", Proto.scheme_to_string job.spec.Proto.scheme);
              ("op", Proto.jobop_name job.op);
            ]
          "job"
          (fun () -> run_job t job);
        loop ()
  in
  Fun.protect ~finally:(fun () -> locked t (fun () -> t.live <- t.live - 1)) loop

let create ?(config = default_config) ?telem ~cache () =
  let telem = match telem with Some tm -> tm | None -> Telemetry.create () in
  let workers = max 1 config.workers in
  let t =
    {
      config;
      job_cache = cache;
      telem;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      in_flight = 0;
      paused = false;
      stopping = false;
      live = workers;
      workers = [];
      prng = Prng.create 42;
      quarantine = Hashtbl.create 16;
      seq = Atomic.make 0;
    }
  in
  (* Scrape-derived gauges: refreshed by the registry's collect hook
     just before each snapshot, so stats/metrics reads see live queue
     and cache state without any hot-path bookkeeping. *)
  let registry = Telemetry.registry telem in
  let module Metric = Slp_obs.Metric in
  let g name help = Metric.Gauge.plain registry ~help name in
  let cache_hits = g "cache_hits" "Result-cache lookups served" in
  let cache_misses = g "cache_misses" "Result-cache lookups missed" in
  let cache_stores = g "cache_stores" "Result-cache entries written" in
  let cache_corrupt = g "cache_corrupt_evictions" "Corrupt entries evicted" in
  let cache_hit_rate = g "cache_hit_rate" "hits / (hits + misses)" in
  Metric.on_collect registry (fun () ->
      let depth, inflight = locked t (fun () -> (Queue.length t.queue, t.in_flight)) in
      let h = health t in
      Telemetry.set_queue_depth telem depth;
      Telemetry.set_in_flight telem inflight;
      Telemetry.set_workers_live telem h.live_workers;
      let cs = Cache.stats t.job_cache in
      let hits = float_of_int cs.Cache.hits in
      let misses = float_of_int cs.Cache.misses in
      Metric.Gauge.set cache_hits hits;
      Metric.Gauge.set cache_misses misses;
      Metric.Gauge.set cache_stores (float_of_int cs.Cache.stores);
      Metric.Gauge.set cache_corrupt (float_of_int cs.Cache.corrupt_evictions);
      Metric.Gauge.set cache_hit_rate
        (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0));
  t.workers <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit ?trace_id t ~id ~op ~spec ~reply =
  let trace_id =
    match trace_id with
    | Some tid -> tid
    | None -> Printf.sprintf "job-%d" (Atomic.fetch_and_add t.seq 1)
  in
  let scheme = Proto.scheme_to_string spec.Proto.scheme in
  let spec =
    match (spec.Proto.timeout, t.config.default_timeout) with
    | None, Some s -> { spec with Proto.timeout = Some s }
    | _ -> spec
  in
  match Ckey.of_spec ~op spec with
  | Result.Error err ->
      Telemetry.job t.telem ~scheme ~outcome:"bad";
      Log.warn (logger t) "job_rejected"
        [
          ("trace", Json.Str trace_id);
          ("job", Json.Str spec.Proto.name);
          ("error", Json.Str (E.to_string err));
        ];
      guard_reply t reply
        (Proto.error_reply ~errors:[ err ] ~message:"kernel rejected" ~id
           Proto.Bad_request)
  | Result.Ok (key, prog) -> (
      match Cache.find t.job_cache key with
      | Some stored ->
          Telemetry.job t.telem ~scheme ~outcome:"cached";
          Log.debug (logger t) "cache_hit"
            [
              ("trace", Json.Str trace_id);
              ("job", Json.Str spec.Proto.name);
              ("key", Json.Str (Ckey.to_hex key));
            ];
          let payload =
            match Json.parse stored with
            | Result.Ok j -> Job.named ~spec j
            | Result.Error _ -> Json.Null
          in
          guard_reply t reply (Proto.ok_reply ~cached:true ~attempts:0 ~id payload)
      | None ->
          let job =
            {
              job_id = id;
              trace_id;
              op;
              spec;
              key;
              prog;
              reply;
              enqueued_at = Clock.now ();
              attempts = 0;
              errors = [];
            }
          in
          let verdict =
            locked t (fun () ->
                if t.stopping then `Draining
                else if Queue.length t.queue >= t.config.queue_depth then `Shed
                else (
                  Queue.push job t.queue;
                  t.in_flight <- t.in_flight + 1;
                  Condition.signal t.nonempty;
                  `Queued))
          in
          (match verdict with
          | `Queued -> Log.debug (logger t) "job_enqueue" (job_fields job)
          | `Draining ->
              Telemetry.job t.telem ~scheme ~outcome:"draining";
              Log.warn (logger t) "job_draining" (job_fields job);
              guard_reply t reply
                (Proto.error_reply ~message:"service is draining" ~id
                   Proto.Draining)
          | `Shed ->
              Telemetry.job t.telem ~scheme ~outcome:"shed";
              Log.warn (logger t) "job_shed" (job_fields job);
              guard_reply t reply
                (Proto.error_reply ~message:"queue full, job shed" ~id
                   Proto.Overloaded)))

let run_sync t ?(id = 0) ?trace_id ~op ~spec () =
  let m = Mutex.create () in
  let c = Condition.create () in
  let slot = ref None in
  submit t ?trace_id ~id ~op ~spec ~reply:(fun r ->
      Mutex.lock m;
      slot := Some r;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !slot do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Option.get !slot

let pause t =
  locked t (fun () -> t.paused <- true)

let resume t =
  locked t (fun () ->
      t.paused <- false;
      Condition.broadcast t.nonempty)

let quarantined t =
  locked t (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.quarantine []
      |> List.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b))

let drain t =
  locked t (fun () ->
      while t.in_flight > 0 do
        Condition.wait t.idle t.mutex
      done)

let shutdown t =
  drain t;
  let workers =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.nonempty;
        let workers = t.workers in
        t.workers <- [];
        workers)
  in
  List.iter Domain.join workers
