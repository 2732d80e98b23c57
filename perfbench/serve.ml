(* The service workload, serve_mixed.

   A fresh [slpd serve] with its shipped defaults gets its own socket
   and cache directory under the run directory.  Set-up starts it,
   waits for [health] to report ready, and prefills the execute results
   of the seed's 48 hot triples.  The timed window then drives two
   closed-loop connections from this one thread: four cache hits on hot
   triples, then one miss (a hot triple with a fresh data seed), in a
   seeded order, for whole rounds of 240 requests until [seconds] have
   passed and at least 1000 requests were answered.  The daemon is
   drained with SIGTERM and must exit 0 with every reply delivered.

   This process never spawns a domain: the oracle for every reply is an
   in-process [Job.run] of the same spec, computed before set-up for
   the hot triples and after the daemon has exited for the cold ones. *)

module P = Slp_pipeline.Pipeline
module Json = Slp_obs.Json
module Proto = Slp_serve.Proto
module Job = Slp_serve.Job
module Ckey = Slp_serve.Ckey
module Cache = Slp_serve.Cache
module Client = Slp_serve.Client
module Suite = Slp_benchmarks.Suite

let min_requests = 1000
let max_rounds = 40

let spec_of ~data_seed (j : Plan.job) =
  {
    (Proto.default_spec ~kernel:j.Plan.kernel.Suite.source ~name:(Plan.job_name j)) with
    Proto.scheme = j.Plan.scheme;
    machine = j.Plan.machine;
    unroll = Some j.Plan.unroll;
    seed = data_seed;
  }

let line_of ~id spec = Proto.request_to_line { Proto.id; op = Proto.Job (Proto.Execute, spec) }

(* -- in-process oracle ---------------------------------------------- *)

type oracle = { payload : string; seconds : float; minor_words : float }

let oracle spec =
  let prog = Slp_frontend.Parser.parse ~name:spec.Proto.name spec.Proto.kernel in
  let w0 = Gc.minor_words () in
  let t0 = Host.now () in
  let r = Job.run ~op:Proto.Execute ~spec prog in
  let t1 = Host.now () in
  let w1 = Gc.minor_words () in
  match r with
  | Ok payload -> Ok { payload = Json.to_string payload; seconds = t1 -. t0; minor_words = w1 -. w0 }
  | Error e -> Error (Slp_util.Slp_error.to_string e)

let payload_field key payload =
  match Json.parse payload with Ok j -> Json.member key j | Error _ -> None

(* -- the daemon ----------------------------------------------------- *)

type daemon = { pid : int; dir : string; socket : string; trace : string option }

let start ~slpd ~dir ~traced =
  Host.remove_tree dir;
  Host.mkdir_p dir;
  let socket = Filename.concat dir "slpd.sock" in
  let trace = if traced then Some (Filename.concat dir "trace.json") else None in
  let args =
    [ slpd; "serve"; "--socket"; socket; "--cache-dir"; Filename.concat dir "cache" ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let out = Unix.openfile (Filename.concat dir "slpd.out") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile (Filename.concat dir "slpd.err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process slpd (Array.of_list args) devnull out err in
  List.iter Unix.close [ out; err; devnull ];
  (* A run that dies early still stops its daemon; [stop] reaps it
     first on the normal path, which makes this a no-op. *)
  at_exit (fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
      | _ | (exception Unix.Unix_error _) -> ());
  { pid; dir; socket; trace }

let call d op =
  let c = Client.connect ~socket:d.socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.call c { Proto.id = 1; op })

let wait_ready d =
  let deadline = Host.now () +. 60.0 in
  let rec poll () =
    let ready =
      match call d Proto.Health with
      | r -> (
          r.Proto.status = Proto.Ok
          && match Json.member "ready" r.Proto.payload with Some (Json.Bool b) -> b | _ -> false)
      | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> false
    in
    if ready then ()
    else if Host.now () > deadline then failwith "slpd did not become ready within 60 s"
    else (
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith "slpd exited before becoming ready");
      Unix.sleepf 0.002;
      poll ())
  in
  poll ()

(* SIGTERM drain.  Returns the exit code and the stats line slpd
   prints on exit. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let code =
    match snd (Unix.waitpid [] d.pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  let stats =
    String.split_on_char '\n' (Host.read_file (Filename.concat d.dir "slpd.out"))
    |> List.find_map (fun l ->
           if String.length l > 0 && l.[0] = '{' then Result.to_option (Json.parse l) else None)
  in
  (code, stats)

(* -- closed-loop client --------------------------------------------- *)

type answer = { sent : float; received : float; line : string }

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

(* Drive [lines] over [connections] closed-loop sockets: each sends its
   next request only after its previous reply has arrived.
   [continue_at i] is asked before request [i] is handed out and may
   end the stream there. *)
let drive ~socket ~connections ~continue_at (lines : string array) =
  let conns =
    Array.init connections (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        (fd, Buffer.create 4096, ref None))
  in
  let answers = Array.make (Array.length lines) None in
  let next = ref 0 and stopped = ref false in
  let send (fd, _, pending) =
    if (not !stopped) && !next < Array.length lines && continue_at !next then begin
      let i = !next in
      incr next;
      let t = Host.now () in
      write_all fd (lines.(i) ^ "\n") 0;
      pending := Some (i, t)
    end
    else stopped := true
  in
  Array.iter send conns;
  let chunk = Bytes.create 65536 in
  let busy () = Array.to_list conns |> List.filter (fun (_, _, p) -> !p <> None) in
  while busy () <> [] do
    let waiting = busy () in
    match Unix.select (List.map (fun (fd, _, _) -> fd) waiting) [] [] 120.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "slpd stopped answering (120 s without a reply)"
    | readable, _, _ ->
        List.iter
          (fun ((fd, buf, pending) as c) ->
            if List.mem fd readable then begin
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if n = 0 then failwith "slpd closed a client connection";
              Buffer.add_subbytes buf chunk 0 n;
              let data = Buffer.contents buf in
              match String.index_opt data '\n' with
              | None -> ()
              | Some k ->
                  let received = Host.now () in
                  Buffer.clear buf;
                  Buffer.add_string buf (String.sub data (k + 1) (String.length data - k - 1));
                  let i, sent = Option.get !pending in
                  answers.(i) <- Some { sent; received; line = String.sub data 0 k };
                  pending := None;
                  send c
            end)
          waiting
  done;
  Array.iter (fun (fd, _, _) -> Unix.close fd) conns;
  Array.sub answers 0 !next |> Array.map Option.get

(* -- stats scraping --------------------------------------------------- *)

let family stats name =
  Option.bind (Json.member "metrics" stats) (fun m ->
      match Option.bind (Json.member name m) (Json.member "series") with
      | Some (Json.Arr series) -> Some series
      | _ -> None)

let counter_sum stats name =
  match family stats name with
  | None -> 0.0
  | Some series ->
      List.fold_left
        (fun acc s -> match Json.member "value" s with Some (Json.Num v) -> acc +. v | _ -> acc)
        0.0 series

(* Per-bucket counts and the sum of a histogram family's series. *)
let histogram stats name =
  match family stats name with
  | Some (s :: _) -> (
      match Json.member "value" s with
      | Some v ->
          let buckets =
            match Json.member "buckets" v with
            | Some (Json.Arr bs) ->
                List.map
                  (fun b ->
                    ( (match Json.member "le" b with Some (Json.Num x) -> x | _ -> infinity),
                      match Json.member "count" b with Some (Json.Num c) -> c | _ -> 0.0 ))
                  bs
            | _ -> []
          in
          let sum = match Json.member "sum" v with Some (Json.Num x) -> x | _ -> 0.0 in
          (buckets, sum)
      | None -> ([], 0.0))
  | _ -> ([], 0.0)

(* The q-quantile of the observations between two scrapes, as the
   upper bound of the bucket holding its rank (the registry's own
   rule). *)
let delta_quantile ~before ~after q =
  let b = fst before and a = fst after in
  let deltas =
    List.map2 (fun (le, c1) (_, c0) -> (le, c1 -. c0)) a (if b = [] then List.map (fun (le, _) -> (le, 0.0)) a else b)
  in
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 deltas in
  if total = 0.0 then nan
  else
    let rank = Float.max 1.0 (Float.ceil (q *. total)) in
    let rec go seen = function
      | [] -> infinity
      | (le, c) :: rest -> if seen +. c >= rank then le else go (seen +. c) rest
    in
    go 0.0 deltas

let cache_field stats key =
  match Option.bind (Json.member "cache" stats) (Json.member key) with Some (Json.Num v) -> v | _ -> 0.0

(* -- the run -------------------------------------------------------- *)

type request = { spec : Proto.spec; hot : int; cold : bool }

type window = {
  first_id : int;  (** Request ids of the window are [first_id + index]. *)
  answers : answer array;
  elapsed : float;
  stats0 : Json.t;
  stats1 : Json.t;
  rss : float;
  daemon : daemon;
}

let ms x = x *. 1000.0

(* Bench-timed service layers on the workload's own request lines:
   decode and encode, cache key, cache lookup and store, in a cache of
   the bench's own under [dir]. *)
let time_layers ~dir ~hot_specs ~hot_oracle (lines : (string * request) list) =
  Host.remove_tree dir;
  let cache = Cache.create ~dir in
  let key spec = match Ckey.of_spec ~op:Proto.Execute spec with Ok (k, _) -> k | Error _ -> 0L in
  let store_s =
    Array.to_list
      (Array.mapi
         (fun h spec ->
           let k = key spec in
           let t0 = Host.now () in
           Cache.store cache k hot_oracle.(h).payload;
           Host.now () -. t0)
         hot_specs)
  in
  let per_line lines f = Stats.median (List.init 5 (fun _ -> Stats.mean (List.map f lines))) in
  let timed f x =
    let t0 = Host.now () in
    ignore (Sys.opaque_identity (f x));
    Host.now () -. t0
  in
  let proto_s =
    per_line lines (fun (line, r) ->
        let payload = Result.get_ok (Json.parse hot_oracle.(r.hot).payload) in
        timed
          (fun () ->
            ( Proto.request_of_line line,
              Proto.reply_to_line (Proto.ok_reply ~cached:true ~attempts:0 ~id:1 payload) ))
          ())
  in
  let ckey_s = per_line lines (fun (_, r) -> timed (Ckey.of_spec ~op:Proto.Execute) r.spec) in
  let hits = List.filter (fun (_, r) -> not r.cold) lines in
  let find_s = per_line hits (fun (_, r) -> timed (Cache.find cache) (key r.spec)) in
  Host.remove_tree dir;
  (ms (Stats.mean store_s), proto_s *. 1e6, ckey_s *. 1e6, find_s *. 1e6)

let run ~slpd ~obscheck ~run_dir ~seed ~seconds ~traced ~setups =
  let hot_jobs = Array.of_list (Plan.hot_set ~seed) in
  let base_seed = Plan.data_seed ~seed in
  let hot_specs = Array.map (spec_of ~data_seed:base_seed) hot_jobs in
  let m = ref { Measure.attempted = 0; failed = 0; failures = []; metrics = []; exact = [] } in
  let fail name msg = m := Measure.fail_message !m (Printf.sprintf "%s: %s" name msg) in
  (* Oracle and exact values of the hot triples, before any daemon. *)
  let hot_oracle =
    Array.map
      (fun spec ->
        match oracle spec with
        | Ok o -> o
        | Error e -> failwith (Printf.sprintf "in-process oracle failed for %s: %s" spec.Proto.name e))
      hot_specs
  in
  let compiled =
    Array.map
      (fun (j : Plan.job) ->
        P.compile ~verify:true ~unroll:j.Plan.unroll ~scheme:j.Plan.scheme ~machine:j.Plan.machine
          (Suite.program j.Plan.kernel))
      hot_jobs
  in
  (* The request stream, encoded up front: the window only writes and
     reads. *)
  let stream =
    List.concat
      (List.init max_rounds (fun index ->
           List.map
             (function
               | Plan.Hit h -> { spec = hot_specs.(h); hot = h; cold = false }
               | Plan.Miss (h, s) -> { spec = { hot_specs.(h) with Proto.seed = s }; hot = h; cold = true })
             (Plan.round ~seed ~index ~base_seed)))
    |> Array.of_list
  in
  let round_len = Plan.hot_size * (Plan.hits_per_miss + 1) in
  let next_id = ref 0 in
  let check_reply name line ~expect =
    m := { !m with Measure.attempted = !m.Measure.attempted + 1 };
    match Proto.reply_of_line line with
    | Error e -> fail name ("unreadable reply: " ^ e)
    | Ok reply -> (
        let payload = Json.to_string reply.Proto.payload in
        if reply.Proto.status <> Proto.Ok then fail name ("status " ^ Proto.status_name reply.Proto.status)
        else if payload_field "correct" payload <> Some (Json.Bool true) then fail name "reply not correct"
        else
          match expect with
          | `Payload o when payload <> o.payload -> fail name "payload differs from in-process Job.run"
          | `Counts_of h ->
              let hot = hot_oracle.(h).payload in
              if
                payload_field "cycles" payload <> payload_field "cycles" hot
                || payload_field "instructions" payload <> payload_field "instructions" hot
              then fail name "cold reply's cycles or instructions differ from its hot triple"
          | `Payload _ -> ())
  in
  let finish d =
    let code, final_stats = stop d in
    if code <> 0 then fail "slpd" (Printf.sprintf "exited %d after SIGTERM" code);
    match final_stats with
    | None -> fail "slpd" "no stats line on exit"
    | Some s ->
        (* Zero lost jobs: nothing dropped, unroutable, degraded or shed. *)
        List.iter
          (fun (fam, label) ->
            List.iter
              (fun x ->
                match (Option.bind (Json.member "labels" x) (Json.member label), Json.member "value" x) with
                | Some (Json.Str v), Some (Json.Num n)
                  when n > 0.0 && List.mem v [ "dropped"; "unroutable"; "degraded"; "shed"; "draining"; "bad" ] ->
                    fail "slpd" (Printf.sprintf "%s{%s=%s} = %.0f" fam label v n)
                | _ -> ())
              (Option.value (family s fam) ~default:[]))
          [ ("replies_total", "outcome"); ("jobs_total", "outcome") ]
  in
  (* One set-up: start, ready, prefill the hot set. *)
  let setup ~traced =
    let dir = Filename.concat run_dir (if traced then "daemon-traced" else "daemon") in
    let t0 = Host.now () in
    let d = start ~slpd ~dir ~traced in
    wait_ready d;
    let lines = Array.map (fun spec -> incr next_id; line_of ~id:!next_id spec) hot_specs in
    let answers = drive ~socket:d.socket ~connections:2 ~continue_at:(fun _ -> true) lines in
    let t1 = Host.now () in
    Array.iteri (fun h a -> check_reply hot_specs.(h).Proto.name a.line ~expect:(`Payload hot_oracle.(h))) answers;
    (d, t1 -. t0)
  in
  let setup_times = ref [] in
  for _ = 2 to setups do
    let d, s = setup ~traced:false in
    setup_times := s :: !setup_times;
    finish d;
    Host.remove_tree d.dir
  done;
  let cold_oracle = Hashtbl.create 256 in
  let window ~traced ~on_metrics =
    let d, s = setup ~traced in
    let stats0 = (call d Proto.Stats).Proto.payload in
    on_metrics "before" (call d Proto.Metrics).Proto.payload;
    let first_id = !next_id + 1 in
    let lines = Array.mapi (fun i r -> line_of ~id:(first_id + i) r.spec) stream in
    let t0 = Host.now () in
    let continue_at i = i mod round_len <> 0 || i < min_requests || Host.now () -. t0 < seconds in
    let answers = drive ~socket:d.socket ~connections:2 ~continue_at lines in
    let elapsed = Host.now () -. t0 in
    next_id := first_id + Array.length lines;
    if Array.length answers = Array.length lines then
      fail "serve_mixed" "request stream exhausted before the window closed";
    let stats1 = (call d Proto.Stats).Proto.payload in
    on_metrics "after" (call d Proto.Metrics).Proto.payload;
    let rss = Host.peak_rss_mb (string_of_int d.pid) in
    finish d;
    (* Replies against the oracle; cold ones against their own
       in-process run, computed now that the daemon is gone. *)
    Array.iteri
      (fun i a ->
        let r = stream.(i) in
        if not r.cold then check_reply r.spec.Proto.name a.line ~expect:(`Payload hot_oracle.(r.hot))
        else begin
          check_reply r.spec.Proto.name a.line ~expect:(`Counts_of r.hot);
          let o =
            match Hashtbl.find_opt cold_oracle i with
            | Some o -> Some o
            | None -> (
                match oracle r.spec with
                | Ok o ->
                    Hashtbl.replace cold_oracle i o;
                    Some o
                | Error e ->
                    fail r.spec.Proto.name ("in-process oracle failed: " ^ e);
                    None)
          in
          match (o, Proto.reply_of_line a.line) with
          | Some o, Ok reply when Json.to_string reply.Proto.payload <> o.payload ->
              fail r.spec.Proto.name "cold payload differs from in-process Job.run"
          | _ -> ()
        end)
      answers;
    ({ first_id; answers; elapsed; stats0; stats1; rss; daemon = d }, s)
  in
  let e2e w =
    let n = Array.length w.answers in
    let lat = Array.to_list (Array.map (fun a -> ms (a.received -. a.sent)) w.answers) in
    let pct q = Option.value (Stats.percentile ~q lat) ~default:nan in
    Measure.
      [
        metric ~samples:n "jobs_per_s" "1/s" (float_of_int n /. w.elapsed);
        metric ~samples:n "job_p50_ms" "ms" (pct 0.5);
        metric ~samples:n "job_p90_ms" "ms" (pct 0.9);
        metric ~samples:n "job_p99_ms" "ms" (pct 0.99);
        metric "peak_rss_mb" "MiB" w.rss;
      ]
  in
  let plain, s = window ~traced:false ~on_metrics:(fun _ _ -> ()) in
  Host.remove_tree plain.daemon.dir;
  setup_times := s :: !setup_times;
  let cycles_of o =
    match payload_field "cycles" o.payload with
    | Some (Json.Str hex) -> Int64.float_of_bits (Int64.of_string ("0x" ^ hex))
    | _ -> nan
  in
  let instrs_of o = match payload_field "instructions" o.payload with Some (Json.Num v) -> v | _ -> nan in
  let sumc f = Array.fold_left (fun acc c -> acc +. float_of_int (f c)) 0.0 compiled in
  let exact =
    [
      ("sim_cycles_geomean", Stats.geomean (Array.to_list (Array.map cycles_of hot_oracle)));
      ("code_size_instrs", sumc Check.code_size);
      ("vm.sim_instrs", Array.fold_left (fun acc o -> acc +. instrs_of o) 0.0 hot_oracle);
      ("codegen.visa_instrs", sumc (fun c -> match c.P.vector with Some v -> Slp_vm.Visa.instr_count v | None -> 0));
      ("codegen.spills", sumc (fun c -> c.P.spill_stats.Slp_codegen.Regalloc.spills));
      ("slp_core.solver_bails", sumc (fun c -> List.length c.P.solver_bails));
    ]
  in
  let exact_metrics =
    Measure.
      [
        metric ~samples:(Array.length hot_oracle) "sim_cycles_geomean" "cycles" (List.assoc "sim_cycles_geomean" exact);
        metric ~samples:(Array.length compiled) "code_size_instrs" "instrs" (List.assoc "code_size_instrs" exact);
      ]
  in
  let untraced = { !m with Measure.metrics = e2e plain @ exact_metrics; exact } in
  if not traced then (untraced, List.rev !setup_times, None, true)
  else begin
    (* The traced daemon: spans from [slpd serve --trace], stats and
       exposition scraped around the window. *)
    let artifacts_ok = ref true in
    let check_metrics tag payload =
      let file = Filename.concat run_dir ("metrics-" ^ tag ^ ".txt") in
      Host.write_file file (match payload with Json.Str t -> t | j -> Json.to_string j);
      if not (obscheck "--metrics" file) then artifacts_ok := false
    in
    let tw, _ = window ~traced:true ~on_metrics:check_metrics in
    let trace_file = Option.get tw.daemon.trace in
    if not (obscheck "--trace" trace_file) then artifacts_ok := false;
    let rows = Spans.of_chrome (Result.get_ok (Json.parse (Host.read_file trace_file))) in
    Host.remove_tree tw.daemon.dir;
    (* Join spans to requests by the request id inside "c<token>-r<id>". *)
    let index_of s =
      match Spans.arg s "trace" with
      | Some t -> (
          match String.index_opt t 'r' with
          | Some k -> (
              match int_of_string_opt (String.sub t (k + 1) (String.length t - k - 1)) with
              | Some id when id >= tw.first_id && id - tw.first_id < Array.length tw.answers -> Some (id - tw.first_id)
              | _ -> None)
          | None -> None)
      | None -> None
    in
    let rx = Hashtbl.create 2048 and jobs = Hashtbl.create 512 in
    List.iter
      (fun (_, roots) ->
        List.iter
          (fun (s : Spans.t) ->
            match (s.Spans.name, index_of s) with
            | "rx", Some i -> Hashtbl.replace rx i s
            | "job", Some i -> Hashtbl.replace jobs i s
            | _ -> ())
          roots)
      rows;
    let n = Array.length tw.answers in
    let misses = List.filter (fun i -> stream.(i).cold) (List.init n Fun.id) in
    let hits = List.filter (fun i -> not stream.(i).cold) (List.init n Fun.id) in
    let lat i = tw.answers.(i).received -. tw.answers.(i).sent in
    let dur tbl i = match Hashtbl.find_opt tbl i with Some s -> Spans.duration s | None -> nan in
    let mean_ms f is = ms (Stats.mean (List.map f is)) in
    let layer_totals = Hashtbl.create 16 in
    List.iter
      (fun i ->
        match Hashtbl.find_opt jobs i with
        | Some s ->
            List.iter
              (fun (layer, v) ->
                Hashtbl.replace layer_totals layer (v +. Option.value (Hashtbl.find_opt layer_totals layer) ~default:0.0))
              (Layers.attribute ~scheme:(Option.value (Spans.arg s "scheme") ~default:"") s)
        | None -> ())
      misses;
    let per_job layer = ms (Option.value (Hashtbl.find_opt layer_totals layer) ~default:0.0) /. float_of_int (max 1 (List.length misses)) in
    let job_wall = List.fold_left (fun acc i -> acc +. dur jobs i) 0.0 misses in
    let latency0 = histogram tw.stats0 "job_latency_seconds" and latency1 = histogram tw.stats1 "job_latency_seconds" in
    let ipc =
      (List.fold_left (fun acc i -> acc +. (lat i -. dur rx i)) 0.0 hits
      +. List.fold_left (fun acc i -> acc +. lat i) 0.0 misses
      -. (snd latency1 -. snd latency0))
      /. float_of_int (max 1 n)
    in
    let wait0 = histogram tw.stats0 "queue_wait_seconds" and wait1 = histogram tw.stats1 "queue_wait_seconds" in
    let hits_delta = cache_field tw.stats1 "hits" -. cache_field tw.stats0 "hits" in
    let lookups = hits_delta +. cache_field tw.stats1 "misses" -. cache_field tw.stats0 "misses" in
    let slowdown =
      List.fold_left (fun acc i -> acc +. dur jobs i) 0.0 misses
      /. List.fold_left
           (fun acc i -> acc +. match Hashtbl.find_opt cold_oracle i with Some o -> o.seconds | None -> nan)
           0.0 misses
    in
    let store_ms, proto_us, ckey_us, find_us =
      time_layers ~dir:(Filename.concat run_dir "bench-cache") ~hot_specs ~hot_oracle
        (List.init round_len (fun i -> (line_of ~id:(i + 1) stream.(i).spec, stream.(i))))
    in
    let kernels = List.sort_uniq compare (Array.to_list (Array.map (fun (j : Plan.job) -> j.Plan.kernel.Suite.name) hot_jobs)) in
    let layers =
      List.map (fun layer -> Measure.metric ~samples:(List.length misses) layer "ms" (per_job layer)) Layers.span_layers
      @ Measure.
          [
            metric ~samples:(List.length misses) "pipeline.unattributed_frac" "frac"
              (Option.value (Hashtbl.find_opt layer_totals "pipeline.unattributed_ms") ~default:0.0 /. job_wall);
            metric ~samples:(Array.length compiled) "depend.ms" "ms"
              (ms (Stats.mean (Array.to_list (Array.map (fun c -> Inproc.time_depend c.P.reference) compiled))));
            metric ~samples:(List.length kernels) "frontend.parse_ms" "ms"
              (ms (Inproc.time_parse (List.map (fun k -> (k, (Suite.find k).Suite.source)) kernels)));
            metric ~samples:(Array.length hot_oracle) "pipeline.alloc_mwords" "Mwords"
              (Stats.mean (Array.to_list (Array.map (fun o -> o.minor_words /. 1e6) hot_oracle)));
            metric ~samples:(List.length hits) "serve.rx_ms" "ms" (mean_ms (dur rx) (hits @ misses));
            metric ~samples:round_len "serve.ckey_us" "us" ckey_us;
            metric ~samples:round_len "serve.cache_find_us" "us" find_us;
            metric ~samples:round_len "serve.proto_us" "us" proto_us;
            metric ~samples:n "serve.ipc_ms" "ms" (ms ipc);
            metric "serve.queue_wait_p50_ms" "ms" (ms (delta_quantile ~before:wait0 ~after:wait1 0.5));
            metric "serve.queue_wait_p99_ms" "ms" (ms (delta_quantile ~before:wait0 ~after:wait1 0.99));
            metric ~samples:(List.length misses) "serve.job_ms" "ms" (mean_ms (dur jobs) misses);
            metric ~samples:(Array.length hot_specs) "serve.cache_store_ms" "ms" store_ms;
            metric ~samples:(List.length misses) "serve.worker_slowdown" "ratio" slowdown;
            metric "serve.hit_frac" "frac" (hits_delta /. lookups);
            metric "serve.retries" "count"
              (counter_sum tw.stats1 "job_retries_total" -. counter_sum tw.stats0 "job_retries_total");
          ]
      @ List.filter_map
          (fun (k, v) -> if String.contains k '.' then Some (Measure.metric k (Layers.unit_of k) v) else None)
          exact
    in
    let traced_m = { !m with Measure.metrics = e2e tw @ exact_metrics @ layers; exact } in
    (untraced, List.rev !setup_times, Some traced_m, !artifacts_ok)
  end
