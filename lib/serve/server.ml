module Json = Slp_obs.Json
module Metric = Slp_obs.Metric
module Log = Slp_obs.Log
module Clock = Slp_obs.Clock

exception Socket_in_use of string

(* The full snapshot: the typed registry under "metrics", plus
   queue/worker/cache/log summaries.  Quarantine keys ride along so
   operators can clear them by hand. *)
let stats_json pool =
  let telem = Pool.telemetry pool in
  let h = Pool.health pool in
  let cache_stats = Cache.stats (Pool.cache pool) in
  let hits = float_of_int cache_stats.Cache.hits in
  let misses = float_of_int cache_stats.Cache.misses in
  Json.Obj
    [
      ( "uptime_seconds",
        Json.Num (Clock.now () -. Telemetry.started_at telem) );
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Num (float_of_int h.Pool.queue_len));
            ("limit", Json.Num (float_of_int h.Pool.queue_limit));
          ] );
      ( "workers",
        Json.Obj [ ("live", Json.Num (float_of_int h.Pool.live_workers)) ] );
      ("metrics", Metric.to_json (Telemetry.registry telem));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Num hits);
            ("misses", Json.Num misses);
            ("stores", Json.Num (float_of_int cache_stats.Cache.stores));
            ( "store_failures",
              Json.Num (float_of_int cache_stats.Cache.store_failures) );
            ( "corrupt_evictions",
              Json.Num (float_of_int cache_stats.Cache.corrupt_evictions) );
            ( "hit_rate",
              Json.Num
                (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0)
            );
          ] );
      ("log", Log.stats_json (Telemetry.log telem));
      ( "quarantined",
        Json.Arr
          (List.map
             (fun (key, name) ->
               Json.Obj
                 [ ("key", Json.Str (Ckey.to_hex key)); ("name", Json.Str name) ])
             (Pool.quarantined pool)) );
    ]

(* The [metrics] op's payload: Prometheus text exposition of the
   pool's registry, with collect hooks (queue/worker/cache gauges) run
   first. *)
let metrics_text pool =
  Metric.to_prometheus (Telemetry.registry (Pool.telemetry pool))

(* The [health] op's payload.  [live] is always true from a running
   reactor; [ready] requires live workers, a queue below the shed
   threshold, and no drain in progress. *)
let health_json ?(draining = false) pool =
  let h = Pool.health pool in
  let ready =
    h.Pool.live_workers > 0
    && h.Pool.queue_len < h.Pool.queue_limit
    && (not h.Pool.stopping)
    && not draining
  in
  Json.Obj
    [
      ("live", Json.Bool true);
      ("ready", Json.Bool ready);
      ("workers_live", Json.Num (float_of_int h.Pool.live_workers));
      ("queue_depth", Json.Num (float_of_int h.Pool.queue_len));
      ("queue_limit", Json.Num (float_of_int h.Pool.queue_limit));
      ("draining", Json.Bool (h.Pool.stopping || draining));
    ]

type client = {
  token : int;
  fd : Unix.file_descr;
  buf : Buffer.t;  (** Partial input line. *)
  out : string Queue.t;  (** Guarded by the server mutex. *)
  mutable sent : int;
      (** Bytes of [out]'s head line already written.  Only the
          reactor reads or writes it; the head stays queued until it
          is written whole. *)
  mutable gone : bool;
}

type t = {
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutex : Mutex.t;  (** Guards [clients] and every client's [out]. *)
  clients : (int, client) Hashtbl.t;
  mutable next_token : int;
  mutable draining : bool;
  stop : bool Atomic.t;
  chunk : Bytes.t;
      (** The one read buffer: only the reactor reads, and every read
          is copied out before the next.  At 64 KiB a per-event buffer
          would be a major-heap allocation on every read. *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let wake t = try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1) with _ -> ()

(* A reply line that will never reach its client.  Count it; a job's
   result was cached before its reply, unless the cache write failed. *)
let unroutable t token =
  Telemetry.reply (Pool.telemetry t.pool) ~outcome:"unroutable";
  Log.warn
    (Telemetry.log (Pool.telemetry t.pool))
    "reply_unroutable"
    [ ("token", Json.Num (float_of_int token)) ]

(* Runs on worker domains and the reactor: queue the line for the
   reactor to flush, or count it when the token no longer resolves. *)
let enqueue_reply t token line =
  let found =
    locked t (fun () ->
        match Hashtbl.find_opt t.clients token with
        | Some c when not c.gone ->
            Queue.push (line ^ "\n") c.out;
            true
        | _ -> false)
  in
  if found then wake t else unroutable t token

(* The lines still queued to a dropped client are unroutable too. *)
let drop_client t (c : client) =
  let lost =
    locked t (fun () ->
        c.gone <- true;
        Hashtbl.remove t.clients c.token;
        let lost = Queue.length c.out in
        Queue.clear c.out;
        lost)
  in
  for _ = 1 to lost do
    unroutable t c.token
  done;
  Log.debug
    (Telemetry.log (Pool.telemetry t.pool))
    "client_gone"
    [ ("token", Json.Num (float_of_int c.token)) ];
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* The job's trace id, minted here at the reactor and carried into the
   worker domain: client token + request id names the span family a
   whole request tree shares. *)
let trace_id_of (c : client) id = Printf.sprintf "c%d-r%d" c.token id

let handle_line t (c : client) line =
  let telem = Pool.telemetry t.pool in
  match Proto.request_of_line line with
  | Result.Error (id, msg) ->
      Log.warn (Telemetry.log telem) "bad_request"
        [
          ("token", Json.Num (float_of_int c.token)); ("error", Json.Str msg);
        ];
      enqueue_reply t c.token
        (Proto.reply_to_line (Proto.error_reply ~message:msg ~id Proto.Bad_request))
  | Result.Ok { Proto.id; op } -> (
      let trace = trace_id_of c id in
      let rx name f =
        Telemetry.span telem ~args:[ ("trace", trace); ("op", name) ] "rx" f
      in
      match op with
      | Proto.Ping ->
          rx "ping" (fun () ->
              enqueue_reply t c.token
                (Proto.reply_to_line (Proto.ok_reply ~id (Json.Str "pong"))))
      | Proto.Stats ->
          rx "stats" (fun () ->
              enqueue_reply t c.token
                (Proto.reply_to_line (Proto.ok_reply ~id (stats_json t.pool))))
      | Proto.Metrics ->
          rx "metrics" (fun () ->
              enqueue_reply t c.token
                (Proto.reply_to_line
                   (Proto.ok_reply ~id (Json.Str (metrics_text t.pool)))))
      | Proto.Health ->
          rx "health" (fun () ->
              enqueue_reply t c.token
                (Proto.reply_to_line
                   (Proto.ok_reply ~id
                      (health_json ~draining:t.draining t.pool))))
      | Proto.Shutdown ->
          Log.info (Telemetry.log telem) "shutdown_requested"
            [ ("token", Json.Num (float_of_int c.token)) ];
          enqueue_reply t c.token
            (Proto.reply_to_line (Proto.ok_reply ~id (Json.Str "draining")));
          Atomic.set t.stop true
      | Proto.Job (jop, spec) ->
          if t.draining then
            enqueue_reply t c.token
              (Proto.reply_to_line
                 (Proto.error_reply ~message:"service is draining" ~id
                    Proto.Draining))
          else
            let token = c.token in
            rx (Proto.jobop_name jop) (fun () ->
                Pool.submit t.pool ~trace_id:trace ~id ~op:jop ~spec
                  ~reply:(fun reply ->
                    enqueue_reply t token (Proto.reply_to_line reply))))

let handle_readable t (c : client) =
  let chunk = t.chunk in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop_client t c
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      drop_client t c
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
  | n ->
      (* Only the new bytes are scanned: a line that arrives over many
         reads is copied out of [c.buf] once, when its newline comes. *)
      let rec feed start =
        let nl = ref start in
        while !nl < n && Bytes.get chunk !nl <> '\n' do
          incr nl
        done;
        Buffer.add_subbytes c.buf chunk start (!nl - start);
        if !nl < n then begin
          let line = Buffer.contents c.buf in
          Buffer.clear c.buf;
          if String.length line > 0 then handle_line t c line;
          feed (!nl + 1)
        end
      in
      feed 0

let handle_writable t (c : client) =
  let next = locked t (fun () -> Queue.peek_opt c.out) in
  match next with
  | None -> ()
  | Some line -> (
      let left = String.length line - c.sent in
      match Unix.write_substring c.fd line c.sent left with
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          drop_client t c
      | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
      | n when n < left -> c.sent <- c.sent + n
      | _ ->
          c.sent <- 0;
          locked t (fun () -> ignore (Queue.pop c.out));
          Telemetry.reply (Pool.telemetry t.pool) ~outcome:"delivered")

let accept_client t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      let token =
        locked t (fun () ->
            let token = t.next_token in
            t.next_token <- token + 1;
            Hashtbl.replace t.clients token
              {
                token;
                fd;
                buf = Buffer.create 256;
                out = Queue.create ();
                sent = 0;
                gone = false;
              };
            token)
      in
      Log.info
        (Telemetry.log (Pool.telemetry t.pool))
        "client_accept"
        [ ("token", Json.Num (float_of_int token)) ]

let drain_wake_pipe t =
  let junk = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r junk 0 (Bytes.length junk) with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
  in
  go ()

let select_once t ~timeout =
  let clients = locked t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.clients []) in
  let reads = t.listen_fd :: t.wake_r :: List.map (fun c -> c.fd) clients in
  let writes =
    List.filter_map
      (fun c -> if locked t (fun () -> not (Queue.is_empty c.out)) then Some c.fd else None)
      clients
  in
  match Unix.select reads writes [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      if List.mem t.wake_r readable then drain_wake_pipe t;
      if List.mem t.listen_fd readable then accept_client t;
      List.iter
        (fun c -> if List.mem c.fd readable && not c.gone then handle_readable t c)
        clients;
      List.iter
        (fun c -> if List.mem c.fd writable && not c.gone then handle_writable t c)
        clients

let pending_output t =
  locked t (fun () ->
      Hashtbl.fold (fun _ c acc -> acc || not (Queue.is_empty c.out)) t.clients false)

(* An existing socket file is either a live daemon's (a connect
   succeeds: refuse to start rather than take the path over, which
   would also let the live daemon's shutdown unlink ours) or stale,
   left by a daemon that died without unlinking it (the connect is
   refused: replace it). *)
let claim_socket path =
  if Sys.file_exists path then begin
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
    in
    if live then raise (Socket_in_use path);
    Unix.unlink path
  end

let run ~pool ~socket:path () =
  claim_socket path;
  (let dir = Filename.dirname path in
   if not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  let t =
    {
      pool;
      listen_fd;
      wake_r;
      wake_w;
      mutex = Mutex.create ();
      clients = Hashtbl.create 16;
      next_token = 1;
      draining = false;
      stop = Atomic.make false;
      chunk = Bytes.create 65536;
    }
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let stop_handler = Sys.Signal_handle (fun _ -> Atomic.set t.stop true; wake t) in
  let prev_term = Sys.signal Sys.sigterm stop_handler in
  let prev_int = Sys.signal Sys.sigint stop_handler in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe prev_pipe;
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ listen_fd; wake_r; wake_w ];
      locked t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [])
      |> List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ());
      if Sys.file_exists path then try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* Serve until a stop trigger flips the flag... *)
      while not (Atomic.get t.stop) do
        select_once t ~timeout:0.5
      done;
      (* ...then drain: no new jobs, finish what's in flight (reply
         callbacks run on worker domains, so the reactor need not spin
         while we wait), flush what queued up, and tear down. *)
      t.draining <- true;
      let telem = Pool.telemetry pool in
      Log.info (Telemetry.log telem) "drain_start" [];
      Telemetry.span telem "drain" (fun () ->
          Pool.drain pool;
          let flush_rounds = ref 0 in
          while pending_output t && !flush_rounds < 50 do
            incr flush_rounds;
            select_once t ~timeout:0.1
          done);
      Log.info (Telemetry.log telem) "drain_done" [];
      Pool.shutdown pool)
