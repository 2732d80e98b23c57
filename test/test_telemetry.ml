(* Tests for the telemetry core: labeled instruments, log-bucketed
   mergeable histograms (quantile error bound, merge associativity,
   bit-identical merge-order determinism), the Prometheus exposition
   renderer and its validator, the structured log ring, the
   cross-domain trace hub. *)

module Json = Slp_obs.Json
module Metric = Slp_obs.Metric
module Log = Slp_obs.Log
module Trace = Slp_obs.Trace
module Tracehub = Slp_obs.Tracehub

(* -- histograms: quantile error bound -------------------------------- *)

let growth = 2.0
let layout = Metric.log_layout ~base:1e-6 ~growth ~buckets:28 ()

let snap_of values =
  let reg = Metric.create () in
  let h = Metric.Histogram.plain reg ~layout "test_seconds" in
  List.iter (Metric.Histogram.observe h) values;
  Metric.Histogram.snap h

let exact_quantile sorted q =
  let n = List.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_quantile_bound =
  (* Values inside the bucketed range: the estimate (a bucket upper
     bound) can only overshoot the exact order statistic, by at most
     one growth factor. *)
  let gen =
    QCheck.make
      ~print:(fun l -> String.concat "," (List.map string_of_float l))
      QCheck.Gen.(
        list_size (int_range 1 200)
          (map (fun x -> 1e-6 *. (2.0 ** x)) (float_range 0.0 27.0)))
  in
  QCheck.Test.make ~count:200
    ~name:"bucketed quantiles overshoot exact percentiles by at most growth"
    gen
    (fun values ->
      let snap = snap_of values in
      let sorted = List.sort compare values in
      List.for_all
        (fun q ->
          let est = Metric.hquantile snap q in
          let exact = exact_quantile sorted q in
          exact <= est && est <= exact *. growth *. (1.0 +. 1e-9))
        [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ])

let test_quantile_edges () =
  let empty = snap_of [] in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Metric.hquantile empty 0.5));
  let over = snap_of [ 1e9 ] in
  Alcotest.(check (float 0.0)) "overflow bucket estimates infinity" infinity
    (Metric.hquantile over 0.5);
  Alcotest.(check int) "overflow still counted" 1 (Metric.hcount over)

(* -- histograms: merge determinism ----------------------------------- *)

let test_merge_determinism =
  (* Simulated domains: independent shards over the same layout must
     merge to a bit-identical snapshot in any order or grouping. *)
  let gen =
    QCheck.make
      ~print:(fun shards ->
        Printf.sprintf "%d shards" (List.length shards))
      QCheck.Gen.(
        list_size (int_range 2 6)
          (list_size (int_range 0 50)
             (map (fun x -> 1e-7 *. (2.0 ** x)) (float_range 0.0 30.0))))
  in
  QCheck.Test.make ~count:100
    ~name:"shard merges are associative and order-independent, bit-identically"
    gen
    (fun shards ->
      let snaps = List.map snap_of shards in
      let merge_all l =
        match l with
        | [] -> assert false
        | s :: rest -> List.fold_left Metric.hmerge s rest
      in
      let forward = merge_all snaps in
      let backward = merge_all (List.rev snaps) in
      (* A skewed grouping: fold pairs first, then the rest. *)
      let grouped =
        match snaps with
        | a :: b :: rest -> merge_all (Metric.hmerge a b :: rest)
        | _ -> forward
      in
      let identical a b =
        a.Metric.hcounts = b.Metric.hcounts
        && Int64.equal a.Metric.hsum_fp b.Metric.hsum_fp
        && a.Metric.hbounds = b.Metric.hbounds
      in
      identical forward backward && identical forward grouped)

let test_merge_layout_mismatch () =
  let a = snap_of [ 1.0 ] in
  let other = Metric.log_layout ~base:1e-3 ~growth:3.0 ~buckets:4 () in
  let reg = Metric.create () in
  let h = Metric.Histogram.plain reg ~layout:other "other_seconds" in
  Metric.Histogram.observe h 1.0;
  let b = Metric.Histogram.snap h in
  match Metric.hmerge a b with
  | _ -> Alcotest.fail "layout mismatch not rejected"
  | exception Invalid_argument _ -> ()

(* -- instruments and labels ------------------------------------------ *)

(* [get] reads one family as a number: every series summed, or only
   the series whose labels match; histograms count observations. *)
let test_get () =
  let m = Metric.create () in
  let restarts = Metric.Counter.plain m "worker_restarts_total" in
  Metric.Counter.incr restarts;
  Metric.Counter.incr ~by:2 restarts;
  Metric.Gauge.set (Metric.Gauge.plain m "depth") 5.0;
  Alcotest.(check (float 0.0)) "counter" 3.0 (Metric.get m "worker_restarts_total");
  Alcotest.(check (float 0.0)) "gauge" 5.0 (Metric.get m "depth");
  Alcotest.(check (float 0.0)) "unknown is zero" 0.0 (Metric.get m "nope");
  let jobs = Metric.Counter.family m ~labels:[ "scheme"; "outcome" ] "jobs_total" in
  Metric.Counter.incr ~by:3 (Metric.Counter.handle jobs [ "slp"; "ok" ]);
  Metric.Counter.incr (Metric.Counter.handle jobs [ "global"; "ok" ]);
  Metric.Counter.incr (Metric.Counter.handle jobs [ "slp"; "shed" ]);
  Alcotest.(check (float 0.0)) "sum across labels" 5.0 (Metric.get m "jobs_total");
  Alcotest.(check (float 0.0)) "filtered by outcome" 4.0
    (Metric.get ~where:[ ("outcome", "ok") ] m "jobs_total");
  Alcotest.(check (float 0.0)) "filtered by both" 3.0
    (Metric.get ~where:[ ("scheme", "slp"); ("outcome", "ok") ] m "jobs_total");
  let latency = Metric.Histogram.plain m "job_seconds" in
  Metric.Histogram.observe latency 0.5;
  Metric.Histogram.observe latency 2.0;
  Alcotest.(check (float 0.0)) "histogram counts" 2.0 (Metric.get m "job_seconds")

let test_instruments () =
  let reg = Metric.create () in
  let jobs = Metric.Counter.family reg ~labels:[ "scheme"; "outcome" ] "jobs_total" in
  let ok = Metric.Counter.handle jobs [ "slp"; "ok" ] in
  let shed = Metric.Counter.handle jobs [ "slp"; "shed" ] in
  Metric.Counter.incr ok;
  Metric.Counter.incr ~by:4 ok;
  Metric.Counter.incr shed;
  Alcotest.(check int) "labeled counter sums increments" 5 (Metric.Counter.value ok);
  let g = Metric.Gauge.plain reg "queue_depth" in
  Metric.Gauge.set g 7.0;
  Alcotest.(check (float 0.0)) "gauge" 7.0 (Metric.Gauge.value g);
  (* Same (family, labels) resolves to the same cells. *)
  Metric.Counter.incr (Metric.Counter.handle jobs [ "slp"; "ok" ]);
  Alcotest.(check int) "handle identity" 6 (Metric.Counter.value ok);
  (* Label arity is enforced. *)
  (match Metric.Counter.handle jobs [ "slp" ] with
  | _ -> Alcotest.fail "label arity not enforced"
  | exception Invalid_argument _ -> ());
  (* Kind conflicts are rejected. *)
  (match Metric.Gauge.family reg "jobs_total" with
  | _ -> Alcotest.fail "kind conflict not rejected"
  | exception Invalid_argument _ -> ());
  (* Collect hooks run before snapshot reads. *)
  Metric.on_collect reg (fun () -> Metric.Gauge.set g 9.0);
  let snap = Metric.snapshot reg in
  let depth =
    List.find (fun (f : Metric.family_snap) -> f.Metric.name = "queue_depth") snap
  in
  (match (List.hd depth.Metric.samples).Metric.value with
  | Metric.Vgauge v -> Alcotest.(check (float 0.0)) "hook ran" 9.0 v
  | _ -> Alcotest.fail "gauge sample expected");
  (* Series are sorted by label values within a family. *)
  let jobs_snap =
    List.find (fun (f : Metric.family_snap) -> f.Metric.name = "jobs_total") snap
  in
  let labelsets =
    List.map (fun (s : Metric.sample) -> s.Metric.labels) jobs_snap.Metric.samples
  in
  Alcotest.(check bool) "series sorted" true
    (labelsets = List.sort compare labelsets)

(* Every domain adds to the same atomic cells: no update is lost. *)
let test_concurrent_updates () =
  let reg = Metric.create () in
  let c = Metric.Counter.plain reg "hits_total" in
  let h = Metric.Histogram.plain reg "wait_seconds" in
  let per_domain = 2_000 in
  let work () =
    for i = 1 to per_domain do
      Metric.Counter.incr c;
      Metric.Histogram.observe h (if i mod 2 = 0 then 1e-3 else 2.0)
    done
  in
  let domains = List.init 2 (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  let n = 3 * per_domain in
  Alcotest.(check int) "counter" n (Metric.Counter.value c);
  let snap = Metric.Histogram.snap h in
  Alcotest.(check int) "histogram count" n (Metric.hcount snap);
  Alcotest.(check int64) "fixed-point sum"
    (Int64.of_int (n / 2 * (1_000_000 + 2_000_000_000)))
    snap.Metric.hsum_fp

(* -- exposition rendering and validation ----------------------------- *)

let test_exposition_round_trip () =
  let reg = Metric.create () in
  let jobs = Metric.Counter.family reg ~help:"jobs" ~labels:[ "outcome" ] "jobs_total" in
  Metric.Counter.incr ~by:3 (Metric.Counter.handle jobs [ "ok" ]);
  Metric.Counter.incr (Metric.Counter.handle jobs [ "shed" ]);
  Metric.Gauge.set (Metric.Gauge.plain reg ~help:"depth" "queue_depth") 2.0;
  let h = Metric.Histogram.plain reg ~help:"lat" "job_latency_seconds" in
  List.iter (Metric.Histogram.observe h) [ 1e-5; 2e-3; 0.5; 4000.0 ];
  let text = Metric.to_prometheus reg in
  (match Metric.validate_exposition text with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("valid exposition rejected: " ^ e));
  let has needle =
    let ln = String.length needle and lh = String.length text in
    let rec go i = i + ln <= lh && (String.sub text i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "TYPE line" true (has "# TYPE jobs_total counter");
  Alcotest.(check bool) "labeled sample" true (has "jobs_total{outcome=\"ok\"} 3");
  Alcotest.(check bool) "inf bucket" true (has "job_latency_seconds_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "sum line" true (has "job_latency_seconds_sum")

let test_exposition_rejections () =
  let cases =
    [
      ("sample before TYPE", "jobs_total 1\n");
      ( "counter without _total",
        "# TYPE jobs counter\njobs 1\n" );
      ( "_total non-counter",
        "# TYPE jobs_total gauge\njobs_total 1\n" );
      ( "histogram without _seconds",
        "# TYPE lat histogram\n\
         lat_bucket{le=\"+Inf\"} 1\nlat_sum 1\nlat_count 1\n" );
      ( "duplicate sample",
        "# TYPE a_total counter\na_total 1\na_total 2\n" );
      ( "decreasing buckets",
        "# TYPE l_seconds histogram\n\
         l_seconds_bucket{le=\"1\"} 5\n\
         l_seconds_bucket{le=\"+Inf\"} 3\n\
         l_seconds_sum 1\nl_seconds_count 3\n" );
      ( "missing +Inf bucket",
        "# TYPE l_seconds histogram\n\
         l_seconds_bucket{le=\"1\"} 1\nl_seconds_sum 1\nl_seconds_count 1\n" );
      ( "inf bucket vs count",
        "# TYPE l_seconds histogram\n\
         l_seconds_bucket{le=\"+Inf\"} 2\nl_seconds_sum 1\nl_seconds_count 3\n" );
      ( "missing sum",
        "# TYPE l_seconds histogram\n\
         l_seconds_bucket{le=\"+Inf\"} 1\nl_seconds_count 1\n" );
    ]
  in
  List.iter
    (fun (what, text) ->
      match Metric.validate_exposition text with
      | Error _ -> ()
      | Ok () -> Alcotest.fail (what ^ " accepted"))
    cases

(* -- structured log --------------------------------------------------- *)

let test_log_ring_and_levels () =
  let t = ref 0.0 in
  let log = Log.create ~level:Log.Info ~capacity:4 ~clock:(fun () -> !t) () in
  Log.debug log "invisible" [];
  Alcotest.(check int) "debug filtered" 0 (Log.total log);
  for i = 1 to 6 do
    t := float_of_int i;
    Log.info log "tick" [ ("i", Json.Num (float_of_int i)) ]
  done;
  Log.warn log "trouble" [ ("what", Json.Str "queue") ];
  Alcotest.(check int) "post-filter total" 7 (Log.total log);
  let entries = Log.recent log in
  Alcotest.(check int) "ring holds capacity" 4 (List.length entries);
  let last = List.nth entries 3 in
  Alcotest.(check string) "oldest-first order" "trouble" last.Log.event;
  (* Every rendered line is valid JSON with the standard envelope. *)
  List.iter
    (fun (e : Log.entry) ->
      match Json.parse e.Log.line with
      | Result.Ok obj ->
          (match Json.member "level" obj with
          | Some (Json.Str _) -> ()
          | _ -> Alcotest.fail "line lacks level")
      | Result.Error m -> Alcotest.fail ("unparsable log line: " ^ m))
    entries;
  Alcotest.(check (list (pair string int)))
    "per-level counts"
    [ ("debug", 0); ("info", 6); ("warn", 1); ("error", 0) ]
    (Log.counts log);
  (* Threshold changes apply immediately; Off silences everything. *)
  Log.set_level log Log.Off;
  Log.error log "dropped" [];
  Alcotest.(check int) "off logs nothing" 7 (Log.total log)

let test_log_file_sink () =
  let path = Filename.temp_file "slp-log" ".jsonl" in
  let log = Log.create ~level:Log.Debug ~clock:(fun () -> 1.5) () in
  Log.with_file log path;
  Log.info log "hello" [ ("n", Json.Num 1.0) ];
  Log.debug log "bye" [];
  Log.close log;
  let ic = open_in path in
  let lines = List.init 2 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "two lines" 2 (List.length lines);
  match Json.parse (List.hd lines) with
  | Result.Ok obj ->
      Alcotest.(check bool) "event field" true
        (Json.member "event" obj = Some (Json.Str "hello"))
  | Result.Error m -> Alcotest.fail ("bad sink line: " ^ m)

(* A sink that cannot take a write (here [/dev/full]: every flush
   fails with ENOSPC) must not raise into the logging call.  The sink
   closes, the ring keeps every event, and the stats name the error. *)
let test_log_full_sink () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let log = Log.create ~level:Log.Debug ~clock:(fun () -> 1.5) () in
  Log.with_file log "/dev/full";
  Log.info log "first" [];
  Log.info log "second" [];
  Alcotest.(check (list string))
    "ring keeps both" [ "first"; "second" ]
    (List.map (fun (e : Log.entry) -> e.Log.event) (Log.recent log));
  (match Json.member "sink_error" (Log.stats_json log) with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "stats do not report the sink error");
  Log.close log

(* -- trace hub -------------------------------------------------------- *)

let test_tracehub_merge () =
  let hub = Tracehub.create () in
  Tracehub.span hub ~args:[ ("trace", "c1-r1") ] "rx" (fun () -> ());
  let worker i =
    Domain.spawn (fun () ->
        Tracehub.span hub ~args:[ ("trace", Printf.sprintf "c1-r%d" i) ] "job"
          (fun () -> Tracehub.span hub "prepare" (fun () -> ())))
  in
  let ds = List.init 3 worker in
  List.iter Domain.join ds;
  Alcotest.(check bool) "balanced" true (Tracehub.balanced hub);
  Alcotest.(check int) "one row per domain" 4 (Tracehub.domains hub);
  let doc = Tracehub.to_chrome_json hub in
  (match Trace.validate_chrome_json doc with
  | Ok n -> Alcotest.(check int) "all events merged" 14 n
  | Error e -> Alcotest.fail ("merged trace invalid: " ^ e));
  (* The merged doc carries distinct tid rows. *)
  match Json.parse doc with
  | Result.Error m -> Alcotest.fail m
  | Result.Ok obj -> (
      match Json.member "traceEvents" obj with
      | Some (Json.Arr evs) ->
          let tids =
            List.sort_uniq compare
              (List.filter_map
                 (fun ev ->
                   match Json.member "tid" ev with
                   | Some (Json.Num n) -> Some n
                   | _ -> None)
                 evs)
          in
          Alcotest.(check int) "four tids" 4 (List.length tids)
      | _ -> Alcotest.fail "no traceEvents")

(* One Chrome-trace writer: a hub with a single row renders exactly
   what the row's own trace renders. *)
let test_tracehub_one_row () =
  let hub = Tracehub.create () in
  Tracehub.span hub ~args:[ ("trace", "c1-r1") ] "rx" (fun () ->
      Tracehub.span hub "decode" (fun () -> ()));
  Tracehub.span hub "rx" (fun () -> ());
  Alcotest.(check int) "one row" 1 (Tracehub.domains hub);
  Alcotest.(check string) "same document"
    (Trace.to_chrome_json (Tracehub.trace hub))
    (Tracehub.to_chrome_json hub)

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Seeded.to_alcotest test_quantile_bound;
          Alcotest.test_case "quantile edges" `Quick test_quantile_edges;
          Seeded.to_alcotest test_merge_determinism;
          Alcotest.test_case "layout mismatch" `Quick test_merge_layout_mismatch;
        ] );
      ( "instruments",
        [
          Alcotest.test_case "counters, gauges, labels" `Quick test_instruments;
          Alcotest.test_case "get sums and filters series" `Quick test_get;
          Alcotest.test_case "concurrent updates are exact" `Quick
            test_concurrent_updates;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "render and validate" `Quick test_exposition_round_trip;
          Alcotest.test_case "validator rejections" `Quick test_exposition_rejections;
        ] );
      ( "log",
        [
          Alcotest.test_case "ring and levels" `Quick test_log_ring_and_levels;
          Alcotest.test_case "file sink" `Quick test_log_file_sink;
          Alcotest.test_case "full sink closes, never raises" `Quick test_log_full_sink;
        ] );
      ( "tracehub",
        [
          Alcotest.test_case "multi-domain merge" `Quick test_tracehub_merge;
          Alcotest.test_case "one row renders as its trace" `Quick
            test_tracehub_one_row;
        ] );
    ]
