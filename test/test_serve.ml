(* Tests for the compile service: deadlines, the content-addressed
   cache and its keys, the worker pool (retry, quarantine,
   load-shedding), the socket daemon end-to-end, and a subset of the
   service fault matrix (the full matrix runs under [slpfault
   --service] and the CI serve-smoke job). *)

open Slp_ir
module E = Slp_util.Slp_error
module Fnv = Slp_util.Fnv
module Backoff = Slp_util.Backoff
module Prng = Slp_util.Prng
module Json = Slp_obs.Json
module Metric = Slp_obs.Metric
module P = Slp_pipeline.Pipeline
module M = Slp_machine.Machine
module Proto = Slp_serve.Proto
module Ckey = Slp_serve.Ckey
module Cache = Slp_serve.Cache
module Fault = Slp_serve.Fault
module Job = Slp_serve.Job
module Pool = Slp_serve.Pool
module Server = Slp_serve.Server
module Client = Slp_serve.Client
module SF = Slp_faultinject.Servicefault
module Suite = Slp_benchmarks.Suite

let scratch = Filename.concat (Filename.get_temp_dir_name ()) "slp-serve-test"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat scratch (Printf.sprintf "case%d" !n)

let kernel_src =
  {|
f64 a[64]; f64 b[64]; f64 c[64];
for i = 0 to 64 {
  c[i] = a[i] * b[i] + c[i];
}
|}

let small_spec ?(scheme = P.Global) ?(name = "k") () =
  { (Proto.default_spec ~kernel:kernel_src ~name) with Proto.scheme }

(* -- deadlines ------------------------------------------------------- *)

let test_deadline_basics () =
  let t = ref 0.0 in
  let clock () = !t in
  let d = E.Deadline.create ~clock ~seconds:10.0 in
  Alcotest.(check bool) "fresh not expired" false (E.Deadline.expired d);
  E.Deadline.check d;
  t := 9.9;
  Alcotest.(check bool) "inside budget" false (E.Deadline.expired d);
  t := 10.1;
  Alcotest.(check bool) "past budget" true (E.Deadline.expired d);
  (match E.Deadline.check d with
  | () -> Alcotest.fail "expired check did not raise"
  | exception E.Error e ->
      Alcotest.(check string) "BAIL16" "BAIL16-deadline" (E.code_name e.E.code));
  Alcotest.(check bool)
    "never survives any clock" false
    (E.Deadline.expired E.Deadline.never);
  Alcotest.(check (float 1e-9)) "remaining infinite" infinity
    (E.Deadline.remaining E.Deadline.never)

let test_fuel_checks_deadline () =
  let t = ref 0.0 in
  let d = E.Deadline.create ~clock:(fun () -> !t) ~seconds:1.0 in
  let fuel = E.Fuel.create ~deadline:d ~pass:E.Grouping ~budget:max_int () in
  (* Inside the deadline: many ticks pass freely. *)
  for _ = 1 to 1000 do
    E.Fuel.tick fuel
  done;
  t := 5.0;
  (* The stride means the breach lands within one batch of ticks. *)
  match
    for _ = 1 to 512 do
      E.Fuel.tick fuel
    done
  with
  | () -> Alcotest.fail "fuel never noticed the expired deadline"
  | exception E.Error e ->
      Alcotest.(check string) "BAIL16 via fuel" "BAIL16-deadline" (E.code_name e.E.code)

let test_compile_deadline () =
  let prog = Suite.program (List.hd Suite.all) in
  let t = ref 0.0 in
  let d = E.Deadline.create ~clock:(fun () -> !t) ~seconds:1.0 in
  t := 2.0;
  match P.compile ~deadline:d ~scheme:P.Global ~machine:M.intel_dunnington prog with
  | _ -> Alcotest.fail "compile ignored an already-expired deadline"
  | exception E.Error e ->
      Alcotest.(check string) "BAIL16 from compile" "BAIL16-deadline" (E.code_name e.E.code)

(* -- backoff --------------------------------------------------------- *)

let test_backoff () =
  let delays seed =
    let prng = Prng.create seed in
    List.init 8 (fun i -> Backoff.delay Backoff.default ~prng ~attempt:(i + 1))
  in
  Alcotest.(check (list (float 1e-12))) "seeded determinism" (delays 5) (delays 5);
  List.iter
    (fun d ->
      Alcotest.(check bool) "positive" true (d > 0.0);
      Alcotest.(check bool) "capped" true (d <= Backoff.default.Backoff.cap))
    (delays 5)

(* -- cache keys ------------------------------------------------------ *)

let key_of ?(op = Proto.Execute) spec =
  match Ckey.of_spec ~op spec with
  | Result.Ok (key, _) -> key
  | Result.Error e -> Alcotest.fail ("unexpected key failure: " ^ E.to_string e)

(* One variant per [Proto.spec] field, with whether it may change a
   Compile key and an Execute key.  The pattern is exhaustive and uses
   every field it binds, so a new spec field does not compile until
   this list says whether it is keyed. *)
let spec_variants
    ({ Proto.kernel; name; scheme; machine; unroll; max_steps; solver_steps; timeout; cores; seed }
     as spec) =
  let keyed = (true, true) and label = (false, false) and execute_only = (false, true) in
  [
    ("kernel", { spec with Proto.kernel = "f64 zz_key;\n" ^ kernel }, keyed);
    ("name", { spec with Proto.name = name ^ "'" }, label);
    ("scheme", { spec with Proto.scheme = (if scheme = P.Slp then P.Global else P.Slp) }, keyed);
    ( "machine",
      { spec with Proto.machine = { M.amd_phenom_ii with M.simd_bits = machine.M.simd_bits } },
      keyed );
    ( "simd_bits",
      { spec with Proto.machine = { machine with M.simd_bits = 2 * machine.M.simd_bits } },
      keyed );
    ("unroll", { spec with Proto.unroll = Some (Option.value unroll ~default:2 + 1) }, keyed);
    ("max_steps", { spec with Proto.max_steps = Some (Option.value max_steps ~default:0 + 1000) }, keyed);
    ( "solver_steps",
      { spec with Proto.solver_steps = Some (Option.value solver_steps ~default:0 + 500) },
      keyed );
    ("timeout", { spec with Proto.timeout = Some (Option.value timeout ~default:0.0 +. 5.0) }, label);
    ("cores", { spec with Proto.cores = cores + 1 }, execute_only);
    ("seed", { spec with Proto.seed = seed + 1 }, execute_only);
  ]

(* One variant per field of the resolved compile options, nested
   records included, exhaustive like [spec_variants]: each must change
   the rendering the key hashes. *)
let options_variants
    ({
       P.grouping =
         { Slp_core.Grouping.recompute_weights; elimination; exclude_scattered; scatter_penalty } as
         grouping;
       schedule = { Slp_core.Schedule.selection; ordering_search } as schedule;
       register_reuse;
       max_steps;
       solver_steps;
     } as options) =
  let module G = Slp_core.Grouping in
  let module S = Slp_core.Schedule in
  let with_grouping g = { options with P.grouping = g } in
  let with_schedule s = { options with P.schedule = s } in
  [
    ("recompute_weights", with_grouping { grouping with G.recompute_weights = not recompute_weights });
    ( "elimination",
      with_grouping
        {
          grouping with
          G.elimination =
            (match elimination with
            | Slp_core.Groupgraph.Max_degree -> Slp_core.Groupgraph.Arbitrary
            | Slp_core.Groupgraph.Arbitrary -> Slp_core.Groupgraph.Max_degree);
        } );
    ("exclude_scattered", with_grouping { grouping with G.exclude_scattered = not exclude_scattered });
    ("scatter_penalty", with_grouping { grouping with G.scatter_penalty = scatter_penalty +. 0.5 });
    ( "selection",
      with_schedule
        {
          schedule with
          S.selection =
            (match selection with S.Reuse_driven -> S.Program_order | S.Program_order -> S.Reuse_driven);
        } );
    ( "ordering_search",
      with_schedule
        {
          schedule with
          S.ordering_search =
            (match ordering_search with
            | S.Direct_reuse_only -> S.Exhaustive
            | S.Exhaustive -> S.Direct_reuse_only);
        } );
    ("register_reuse", { options with P.register_reuse = not register_reuse });
    ("max_steps", { options with P.max_steps = Some (Option.value max_steps ~default:0 + 1) });
    ("solver_steps", { options with P.solver_steps = solver_steps + 1 });
  ]

let test_key_stability =
  let gen =
    QCheck.make
      ~print:(fun p -> Program.to_source p)
      (QCheck.Gen.map
         (fun seed ->
           Slp_fuzz.Gen.program ~name:"keyfuzz" (Slp_util.Prng.create seed))
         (QCheck.Gen.int_bound 1_000_000))
  in
  QCheck.Test.make ~count:60
    ~name:"cache key is invariant under to_source round-trip and splits on flags"
    gen
    (fun prog ->
      let src = Program.to_source prog in
      let spec = { (Proto.default_spec ~kernel:src ~name:"a") with Proto.scheme = P.Global } in
      let check op ~same (field, k, k') =
        if (k = k') <> same then
          QCheck.Test.fail_reportf "%s: %s %s the key" (Proto.jobop_name op) field
            (if same then "split" else "did not split")
      in
      List.iter
        (fun op ->
          let key_of = key_of ~op in
          let k = key_of spec in
          (* A default spelled out keys as the bare spec. *)
          List.iter (check op ~same:true)
            [
              ( "unroll at the machine's default",
                k,
                key_of { spec with Proto.unroll = Some (P.default_unroll spec.Proto.machine) } );
              ( "solver_steps at the default",
                k,
                key_of { spec with Proto.solver_steps = Some P.default_options.P.solver_steps } );
            ];
          List.iter
            (fun (field, variant, (compile, execute)) ->
              let keyed = match op with Proto.Compile -> compile | Proto.Execute -> execute in
              check op ~same:(not keyed) (field, k, key_of variant))
            (spec_variants spec))
        [ Proto.Compile; Proto.Execute ];
      check Proto.Execute ~same:false ("op", key_of spec, key_of ~op:Proto.Compile spec);
      List.iter
        (fun (field, variant) ->
          if Ckey.render_options variant = Ckey.render_options P.default_options then
            QCheck.Test.fail_reportf "options field %s does not reach the key" field)
        (options_variants P.default_options);
      true)

let test_fnv_framing () =
  Alcotest.(check bool)
    "field boundaries matter" true
    (Fnv.hash_fields [ "ab"; "c" ] <> Fnv.hash_fields [ "a"; "bc" ]);
  let h = Fnv.hash64 "slp" in
  Alcotest.(check (option int64)) "hex round-trip" (Some h) (Fnv.of_hex (Fnv.to_hex h))

(* The memory digest hashes each value's bits through [Fnv.hex_into];
   it must hash exactly what [Printf.sprintf "%Lx;"] would print. *)
let test_fnv_hex_into () =
  List.iter
    (fun v ->
      let printed = Printf.sprintf "%Lx;" v in
      List.iter
        (fun h ->
          Alcotest.(check int64) printed (Fnv.string_into h printed) (Fnv.hex_into h v ';'))
        [ Fnv.hash64 ""; Fnv.hash64 "A:" ])
    (List.map Int64.bits_of_float [ 0.; -0.; 1.; Float.nan; Float.infinity ]
    @ [ Int64.min_int; Int64.max_int ])

(* -- protocol -------------------------------------------------------- *)

let test_proto_roundtrip () =
  let spec =
    {
      (small_spec ()) with
      Proto.unroll = Some 4;
      max_steps = Some 1000;
      timeout = Some 2.5;
      cores = 2;
      seed = 7;
    }
  in
  let req = { Proto.id = 9; op = Proto.Job (Proto.Execute, spec) } in
  (match Proto.request_of_line (Proto.request_to_line req) with
  | Result.Ok r ->
      Alcotest.(check int) "id" 9 r.Proto.id;
      (match r.Proto.op with
      | Proto.Job (Proto.Execute, s) ->
          Alcotest.(check string) "kernel" spec.Proto.kernel s.Proto.kernel;
          Alcotest.(check (option int)) "unroll" (Some 4) s.Proto.unroll;
          Alcotest.(check (option (float 1e-9))) "timeout" (Some 2.5) s.Proto.timeout;
          Alcotest.(check int) "cores" 2 s.Proto.cores
      | _ -> Alcotest.fail "op did not round-trip")
  | Result.Error (_, msg) -> Alcotest.fail msg);
  let err = E.make ~pass:E.Grouping E.Fuel_exhausted "out of steps" in
  let reply =
    Proto.ok_reply ~cached:true ~attempts:2 ~errors:[ err ] ~id:9
      (Json.Obj [ ("x", Json.Num 1.0) ])
  in
  match Proto.reply_of_line (Proto.reply_to_line reply) with
  | Result.Ok r ->
      Alcotest.(check bool) "cached" true r.Proto.cached;
      Alcotest.(check int) "attempts" 2 r.Proto.attempts;
      (match r.Proto.errors with
      | [ e ] -> Alcotest.(check string) "code" "BAIL11-fuel" (E.code_name e.E.code)
      | _ -> Alcotest.fail "errors did not round-trip")
  | Result.Error msg -> Alcotest.fail msg

(* An error message quotes a client string whole up to 64 bytes, and
   past that its first 64 bytes and its length, so a reply to a
   megabyte line is a short line. *)
let test_bad_request () =
  let error line =
    match Proto.request_of_line line with
    | Result.Error (id, msg) -> (id, msg)
    | Result.Ok _ -> Alcotest.failf "%s parsed" (String.sub line 0 (min 80 (String.length line)))
  in
  Alcotest.(check (pair int string))
    "unknown op, with its id" (3, {|unknown op "warp"|})
    (error {|{"id": 3, "op": "warp"}|});
  Alcotest.(check (pair int string))
    "unknown scheme" (4, {|missing or malformed field "scheme warp"|})
    (error {|{"id": 4, "op": "compile", "kernel": "", "scheme": "warp"}|});
  Alcotest.(check int) "garbage fails with id -1" (-1) (fst (error "not json"));
  let prefix = {|{"id": 5, "op": "|} and suffix = {|"}|} in
  let op = String.make (1_000_020 - String.length prefix - String.length suffix) 'x' in
  let line = prefix ^ op ^ suffix in
  Alcotest.(check int) "a 1,000,020-byte line" 1_000_020 (String.length line);
  let id, msg = error line in
  let reply = Proto.reply_to_line (Proto.error_reply ~message:msg ~id Proto.Bad_request) in
  Alcotest.(check bool)
    (Printf.sprintf "reply under 300 bytes (%d)" (String.length reply))
    true
    (String.length reply < 300);
  Alcotest.(check string) "first 64 bytes, then the length"
    (Printf.sprintf "unknown op %S… (%d bytes)" (String.sub op 0 64) (String.length op))
    msg;
  let machine = String.make 65 'm' in
  Alcotest.(check string) "a long machine name clipped"
    (Printf.sprintf "missing or malformed field %S… (65 bytes)" ("machine " ^ String.sub machine 0 64))
    (snd (error (Printf.sprintf {|{"op": "execute", "kernel": "", "machine": "%s"}|} machine)))

(* -- cache ----------------------------------------------------------- *)

let test_cache_integrity () =
  Fault.disarm ();
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let key = Fnv.hash64 "k1" in
  Cache.store cache key "{\"v\": 1}";
  Alcotest.(check (option string)) "hit" (Some "{\"v\": 1}") (Cache.find cache key);
  (* Rot the entry on disk behind the cache's back. *)
  let file = Filename.concat (Cache.dir cache) (Fnv.to_hex key ^ ".entry") in
  let oc = open_out_bin file in
  output_string oc "deadbeefdeadbeef {\"v\": 2}\n";
  close_out oc;
  Alcotest.(check (option string)) "corrupt entry evicted" None (Cache.find cache key);
  Alcotest.(check bool) "file removed" false (Sys.file_exists file);
  let stats = Cache.stats cache in
  Alcotest.(check int) "eviction counted" 1 stats.Cache.corrupt_evictions;
  (* The next store heals it. *)
  Cache.store cache key "{\"v\": 3}";
  Alcotest.(check (option string)) "healed" (Some "{\"v\": 3}") (Cache.find cache key)

let test_cache_corrupt_store_fault () =
  Fault.disarm ();
  let cache = Cache.create ~dir:(fresh_dir ()) in
  let key = Fnv.hash64 "k2" in
  Fault.arm (Fault.Corrupt_store 1);
  Cache.store cache key "payload";
  Alcotest.(check (option string)) "flipped byte caught" None (Cache.find cache key);
  Alcotest.(check int) "evicted" 1 (Cache.stats cache).Cache.corrupt_evictions;
  Fault.disarm ()

(* A [store] killed between its write and its rename leaves an
   [.entry.tmp] file behind; the next [create] sweeps it and keeps the
   entries written before. *)
let test_cache_sweeps_orphaned_tmp () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let key = Fnv.hash64 "k3" in
  Cache.store (Cache.create ~dir) key "{\"v\": 1}";
  let orphan = Filename.concat dir (Fnv.to_hex (Fnv.hash64 "k4") ^ ".entry.tmp") in
  let oc = open_out_bin orphan in
  output_string oc "a torn wri";
  close_out oc;
  let cache = Cache.create ~dir in
  Alcotest.(check bool) "orphaned tmp swept" false (Sys.file_exists orphan);
  Alcotest.(check (option string))
    "earlier entry still hits" (Some "{\"v\": 1}") (Cache.find cache key)

(* -- pool ------------------------------------------------------------ *)

let quick_config =
  { Pool.default_config with Pool.workers = 1; sleep = (fun _ -> ()) }

let with_pool ?(config = quick_config) f =
  Fault.disarm ();
  let pool = Pool.create ~config ~cache:(Cache.create ~dir:(fresh_dir ())) () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool; Fault.disarm ()) (fun () -> f pool)

let test_pool_basic_and_cached () =
  with_pool (fun pool ->
      let spec = small_spec () in
      let first = Pool.run_sync pool ~id:1 ~op:Proto.Execute ~spec () in
      Alcotest.(check string) "ok" "ok" (Proto.status_name first.Proto.status);
      Alcotest.(check bool) "fresh" false first.Proto.cached;
      Alcotest.(check int) "one attempt" 1 first.Proto.attempts;
      let again = Pool.run_sync pool ~id:2 ~op:Proto.Execute ~spec () in
      Alcotest.(check bool) "cache hit" true again.Proto.cached;
      Alcotest.(check string) "bit-identical payload"
        (Json.to_string first.Proto.payload)
        (Json.to_string again.Proto.payload))

(* The key ignores job names, so two jobs that differ only in name
   share one cache entry; the second job's reply still names itself,
   and the rest of its payload is the first job's, byte for byte. *)
let test_pool_cached_reply_names_its_job () =
  with_pool (fun pool ->
      List.iteri
        (fun i op ->
          let run id name = Pool.run_sync pool ~id ~op ~spec:(small_spec ~name ()) () in
          let first = run (2 * i) "first" and second = run ((2 * i) + 1) "second" in
          let what = Proto.jobop_name op in
          let name (r : Proto.reply) =
            match Json.member "name" r.Proto.payload with
            | Some (Json.Str n) -> n
            | _ -> Alcotest.fail (what ^ ": payload has no name")
          in
          Alcotest.(check bool) (what ^ ": first computed") false first.Proto.cached;
          Alcotest.(check bool) (what ^ ": second cached") true second.Proto.cached;
          Alcotest.(check string) (what ^ ": first names itself") "first" (name first);
          Alcotest.(check string) (what ^ ": second names itself") "second" (name second);
          Alcotest.(check string)
            (what ^ ": otherwise the stored payload")
            (Json.to_string (Job.named ~spec:(small_spec ~name:"second" ()) first.Proto.payload))
            (Json.to_string second.Proto.payload))
        [ Proto.Compile; Proto.Execute ])

let test_pool_retries_worker_death () =
  with_pool (fun pool ->
      let spec = small_spec () in
      Fault.arm (Fault.Kill_worker 1);
      let reply = Pool.run_sync pool ~id:1 ~op:Proto.Execute ~spec () in
      Alcotest.(check string) "ok after restart" "ok"
        (Proto.status_name reply.Proto.status);
      Alcotest.(check int) "two attempts" 2 reply.Proto.attempts;
      Alcotest.(check (float 1e-9)) "restart counted" 1.0
        (Metric.get (Pool.metrics pool) "worker_restarts_total"))

let test_pool_quarantines_poison () =
  with_pool (fun pool ->
      (* A zero step budget fails deterministically on every attempt. *)
      let spec = { (small_spec ()) with Proto.max_steps = Some 0 } in
      let reply = Pool.run_sync pool ~id:1 ~op:Proto.Execute ~spec () in
      Alcotest.(check string) "degraded" "degraded"
        (Proto.status_name reply.Proto.status);
      Alcotest.(check bool) "quarantined" true reply.Proto.quarantined;
      Alcotest.(check int) "attempts capped" quick_config.Pool.max_attempts
        reply.Proto.attempts;
      Alcotest.(check bool) "BAIL11 catalogued" true
        (List.exists (fun (e : E.t) -> e.E.code = E.Fuel_exhausted) reply.Proto.errors);
      Alcotest.(check int) "key recorded" 1 (List.length (Pool.quarantined pool));
      (* Resubmission takes the quarantine fast path: no fresh attempts. *)
      let again = Pool.run_sync pool ~id:2 ~op:Proto.Execute ~spec () in
      Alcotest.(check bool) "still quarantined" true again.Proto.quarantined)

let test_pool_sheds_when_full () =
  let config = { quick_config with Pool.queue_depth = 2 } in
  with_pool ~config (fun pool ->
      Pool.pause pool;
      let replies = Array.make 5 None in
      for i = 0 to 4 do
        Pool.submit pool ~id:i ~op:Proto.Execute ~spec:(small_spec ())
          ~reply:(fun r -> replies.(i) <- Some r)
      done;
      let shed =
        Array.to_list replies
        |> List.filter_map Fun.id
        |> List.filter (fun r -> r.Proto.status = Proto.Overloaded)
      in
      (* First job may be cached? No cache yet: 2 queued, 3 shed. *)
      Alcotest.(check int) "three shed" 3 (List.length shed);
      Pool.resume pool;
      Pool.drain pool;
      Alcotest.(check int) "every submission answered" 5
        (Array.to_list replies |> List.filter_map Fun.id |> List.length))

let test_pool_health () =
  with_pool (fun pool ->
      let h = Pool.health pool in
      Alcotest.(check int) "one live worker" 1 h.Pool.live_workers;
      Alcotest.(check int) "idle queue" 0 h.Pool.queue_len;
      Alcotest.(check int) "limit from config" quick_config.Pool.queue_depth
        h.Pool.queue_limit;
      Alcotest.(check bool) "not stopping" false h.Pool.stopping)

(* Poll [f] every 25 ms for up to 10 s. *)
let rec within_10s ?(tries = 400) f =
  match f () with
  | Some v -> Some v
  | None when tries = 0 -> None
  | None ->
      Unix.sleepf 0.025;
      within_10s ~tries:(tries - 1) f

(* A pool whose cache directory vanishes after [create]: the job's
   cache write fails, and the job must still be answered [ok],
   uncached, with the one-shot payload.  The wait is bounded, because
   a worker that dies of the failed write never answers. *)
let test_pool_survives_lost_cache_dir () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let cache = Cache.create ~dir in
  let pool = Pool.create ~config:quick_config ~cache () in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  let spec = small_spec () in
  let oracle =
    match Job.run ~op:Proto.Execute ~spec (Slp_frontend.Parser.parse ~name:"k" spec.Proto.kernel) with
    | Result.Ok payload -> Json.to_string payload
    | Result.Error e -> Alcotest.fail (E.to_string e)
  in
  let answer = Atomic.make None in
  Pool.submit pool ~id:1 ~op:Proto.Execute ~spec ~reply:(fun r -> Atomic.set answer (Some r));
  match within_10s (fun () -> Atomic.get answer) with
  | None -> Alcotest.fail "job never answered"
  | Some reply ->
      Alcotest.(check string) "ok" "ok" (Proto.status_name reply.Proto.status);
      Alcotest.(check bool) "uncached" false reply.Proto.cached;
      Alcotest.(check int) "one attempt" 1 reply.Proto.attempts;
      Alcotest.(check string) "one-shot payload" oracle (Json.to_string reply.Proto.payload);
      Alcotest.(check int) "store failure counted" 1 (Cache.stats cache).Cache.store_failures;
      Pool.shutdown pool;
      Alcotest.(check int) "no worker loop left" 0 (Pool.health pool).Pool.live_workers

(* Global+Layout on mg adds replica arrays to the vector program's
   memory; the reply's scalar-reference check must still pass, as
   [Pipeline.execute]'s does for the same compile. *)
let test_execute_layout_replicas_correct () =
  let mg = Suite.find "mg" in
  let spec =
    { (Proto.default_spec ~kernel:mg.Suite.source ~name:"mg") with
      Proto.scheme = P.Global_layout }
  in
  let c =
    P.compile ~scheme:spec.Proto.scheme ~machine:spec.Proto.machine (Suite.program mg)
  in
  Alcotest.(check bool) "layout adds replicas" true (c.P.replica_count > 0);
  Alcotest.(check bool) "pipeline check passes" true
    (P.execute ~seed:spec.Proto.seed c).P.correct;
  with_pool (fun pool ->
      let reply = Pool.run_sync pool ~id:1 ~op:Proto.Execute ~spec () in
      Alcotest.(check string) "ok" "ok" (Proto.status_name reply.Proto.status);
      Alcotest.(check bool) "reply says correct" true
        (Json.member "correct" reply.Proto.payload = Some (Json.Bool true)))

(* A traced Execute job puts its VM runs in an "execute" span and its
   memory digest in a "digest" span on the job's trace, next to the
   compile stages. *)
let test_execute_span () =
  let obs = Slp_obs.Obs.create ~trace:true () in
  let spec = small_spec () in
  let prog = Slp_frontend.Parser.parse ~name:"k" spec.Proto.kernel in
  (match Job.run ~obs ~op:Proto.Execute ~spec prog with
  | Result.Ok _ -> ()
  | Result.Error e -> Alcotest.fail (E.to_string e));
  let names =
    List.map (fun (name, _, _, _) -> name)
      (Slp_obs.Trace.events (Option.get obs.Slp_obs.Obs.trace))
  in
  Alcotest.(check bool) "compile stages traced" true (List.mem "plan" names);
  Alcotest.(check bool) "execute span traced" true (List.mem "execute" names);
  Alcotest.(check bool) "digest span traced" true (List.mem "digest" names)

(* Every Execute payload of the suite under each scheme and machine,
   plus Global+Layout on Intel at two cores, folded into one FNV-64 per
   group.  A payload carries the final memory digest, the cycles' bit
   pattern, the instruction count and the correct bit, so these pin
   the execute path's observable behaviour bit for bit. *)
let execute_payloads_digest ~scheme ~machine ~cores =
  Fault.disarm ();
  Fnv.to_hex
    (Fnv.hash_fields
       (List.map
          (fun (bench : Suite.t) ->
            let spec =
              { (Proto.default_spec ~kernel:bench.Suite.source ~name:bench.Suite.name)
                with Proto.scheme; machine; cores }
            in
            match Job.run ~op:Proto.Execute ~spec (Suite.program bench) with
            | Result.Ok payload -> Json.to_string payload
            | Result.Error e -> Alcotest.fail (E.to_string e))
          Suite.all))

let pinned_payloads =
  [
    ("Scalar", "intel", 1, "dda8e83111fd7eaf");
    ("Scalar", "amd", 1, "75c9a9a9e2235bcd");
    ("Native", "intel", 1, "fa51315e49fab827");
    ("Native", "amd", 1, "3be91eb0e500177f");
    ("SLP", "intel", 1, "ebc1deca05314c44");
    ("SLP", "amd", 1, "22267fc4cb80038f");
    ("Global", "intel", 1, "7e4fd9f78326c8a9");
    ("Global", "amd", 1, "44f6b96417c25786");
    ("Global+Layout", "intel", 1, "d390ef9a97ce31ac");
    ("Global+Layout", "amd", 1, "988bd3d14eb57519");
    ("Optimal", "intel", 1, "d629896055101cf0");
    ("Optimal", "amd", 1, "c77618ce0610abd0");
    ("Global+Layout", "intel", 2, "cd44a453e6b39a5e");
  ]

let test_execute_payloads_pinned () =
  List.iter
    (fun (scheme_name, machine_name, cores, expected) ->
      let scheme =
        List.find (fun s -> P.scheme_name s = scheme_name) P.all_schemes
      in
      let machine = Option.get (Proto.machine_of_string machine_name) in
      Alcotest.(check string)
        (Printf.sprintf "%s %s x%d" scheme_name machine_name cores)
        expected
        (execute_payloads_digest ~scheme ~machine ~cores))
    pinned_payloads

(* -- end-to-end over the socket -------------------------------------- *)

let rec connect ~socket tries =
  match Client.connect ~socket with
  | c -> c
  | exception Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.05;
      connect ~socket (tries - 1)

let ping_ok client id =
  Proto.status_name (Client.call client { Proto.id; op = Proto.Ping }).Proto.status
  = "ok"

let shut_down client id = ignore (Client.call client { Proto.id; op = Proto.Shutdown })

let test_server_end_to_end () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let socket = Filename.concat dir "slpd.sock" in
  let pool = Pool.create ~config:quick_config ~cache:(Cache.create ~dir) () in
  let daemon = Domain.spawn (fun () -> Server.run ~pool ~socket ()) in
  let client = connect ~socket 100 in
  let ping = Client.call client { Proto.id = 1; op = Proto.Ping } in
  Alcotest.(check string) "pong" "ok" (Proto.status_name ping.Proto.status);
  let spec = small_spec () in
  let first =
    Client.call client { Proto.id = 2; op = Proto.Job (Proto.Execute, spec) }
  in
  Alcotest.(check string) "job ok" "ok" (Proto.status_name first.Proto.status);
  Alcotest.(check bool) "computed" false first.Proto.cached;
  (* Interleaved ids: submit two, read in reverse order. *)
  Client.send client { Proto.id = 3; op = Proto.Job (Proto.Execute, spec) };
  Client.send client { Proto.id = 4; op = Proto.Ping };
  let pong2 = Client.wait client ~id:4 in
  Alcotest.(check string) "second ping" "ok" (Proto.status_name pong2.Proto.status);
  let cached = Client.wait client ~id:3 in
  Alcotest.(check bool) "served from cache" true cached.Proto.cached;
  Alcotest.(check string) "bit-identical over the wire"
    (Json.to_string first.Proto.payload)
    (Json.to_string cached.Proto.payload);
  let stats = Client.call client { Proto.id = 5; op = Proto.Stats } in
  (match Json.member "cache" stats.Proto.payload with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "stats payload lacks cache section");
  let bye = Client.call client { Proto.id = 6; op = Proto.Shutdown } in
  Alcotest.(check string) "shutdown acknowledged" "ok"
    (Proto.status_name bye.Proto.status);
  Domain.join daemon;
  Client.close client;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

let test_server_observability () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let socket = Filename.concat dir "slpd.sock" in
  let pool = Pool.create ~config:quick_config ~cache:(Cache.create ~dir) () in
  let daemon = Domain.spawn (fun () -> Server.run ~pool ~socket ()) in
  (* A client that vanishes before its reply lands: the reactor must
     count the undeliverable reply, not lose it. *)
  let ghost = connect ~socket 100 in
  Client.send ghost { Proto.id = 1; op = Proto.Job (Proto.Execute, small_spec ()) };
  Client.close ghost;
  let unroutable () =
    Metric.get ~where:[ ("outcome", "unroutable") ] (Pool.metrics pool)
      "replies_total"
  in
  let rec await tries =
    if unroutable () >= 1.0 then ()
    else if tries = 0 then Alcotest.fail "unroutable reply never counted"
    else begin
      Unix.sleepf 0.025;
      await (tries - 1)
    end
  in
  await 400;
  (* Counted once: the job's reply was queued for a client that was
     gone, so it is unroutable and never delivered.  Draining the pool
     lets its reply callback finish. *)
  Pool.drain pool;
  let delivered =
    Metric.get ~where:[ ("outcome", "delivered") ] (Pool.metrics pool) "replies_total"
  in
  Alcotest.(check (float 1e-9)) "ghost reply unroutable" 1.0 (unroutable ());
  Alcotest.(check (float 1e-9)) "ghost reply not delivered" 0.0 delivered;
  let client = connect ~socket 100 in
  let health = Client.call client { Proto.id = 2; op = Proto.Health } in
  Alcotest.(check string) "health ok" "ok" (Proto.status_name health.Proto.status);
  (match Json.member "ready" health.Proto.payload with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "daemon not ready");
  let metrics = Client.call client { Proto.id = 3; op = Proto.Metrics } in
  (match metrics.Proto.payload with
  | Json.Str text -> (
      match Slp_obs.Metric.validate_exposition text with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("metrics exposition invalid: " ^ e))
  | _ -> Alcotest.fail "metrics payload not text");
  let stats = Client.call client { Proto.id = 4; op = Proto.Stats } in
  (match Json.member "metrics" stats.Proto.payload with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "stats lacks typed metrics section");
  let bye = Client.call client { Proto.id = 5; op = Proto.Shutdown } in
  Alcotest.(check string) "shutdown acknowledged" "ok"
    (Proto.status_name bye.Proto.status);
  Domain.join daemon;
  Client.close client

(* A reply still queued when the reactor drops its client is counted
   as unroutable.  The client shuts down its receiving side and sends
   a ping: the reactor's write of the pong fails with EPIPE, and the
   pong goes down with the client. *)
let test_server_dropped_client_replies () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let socket = Filename.concat dir "slpd.sock" in
  let pool = Pool.create ~config:quick_config ~cache:(Cache.create ~dir) () in
  let daemon = Domain.spawn (fun () -> Server.run ~pool ~socket ()) in
  let control = connect ~socket 100 in
  Alcotest.(check bool) "daemon answers" true (ping_ok control 1);
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
  let ping = Proto.request_to_line { Proto.id = 1; op = Proto.Ping } ^ "\n" in
  ignore (Unix.write_substring fd ping 0 (String.length ping));
  let unroutable () =
    Metric.get ~where:[ ("outcome", "unroutable") ] (Pool.metrics pool) "replies_total"
  in
  let counted = within_10s (fun () -> if unroutable () >= 1.0 then Some () else None) in
  Unix.close fd;
  shut_down control 2;
  Domain.join daemon;
  Client.close control;
  Alcotest.(check bool) "dropped pong counted" true (counted <> None);
  Alcotest.(check (float 1e-9)) "counted once" 1.0 (unroutable ())

(* Partial writes.  One client pipelines its requests and reads
   nothing until all are sent.  Every third compiles the kernel a
   first compile left in the cache, under a name twice the socket send
   buffer long, which the reply echoes: a hit is answered on the
   reactor, in order, and such a reply cannot leave in one write, so
   the stats replies queued behind it wait on a full buffer.  Every
   reply must still arrive, whole and in order. *)
let test_server_partial_writes () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let socket = Filename.concat dir "slpd.sock" in
  let pool = Pool.create ~config:quick_config ~cache:(Cache.create ~dir) () in
  let daemon = Domain.spawn (fun () -> Server.run ~pool ~socket ()) in
  let control = connect ~socket 100 in
  let warm = Client.call control { Proto.id = 99; op = Proto.Job (Proto.Compile, small_spec ()) } in
  Alcotest.(check string) "warm-up compile ok" "ok" (Proto.status_name warm.Proto.status);
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let big_name = String.make (2 * Unix.getsockopt_int fd Unix.SO_SNDBUF) 'x' in
  let count = 9 in
  let big k = k mod 3 = 2 in
  let requests =
    String.concat ""
      (List.init count (fun i ->
           let id = i + 1 in
           let op =
             if big id then Proto.Job (Proto.Compile, small_spec ~name:big_name ())
             else Proto.Stats
           in
           Proto.request_to_line { Proto.id; op } ^ "\n"))
  in
  let rec send off =
    if off < String.length requests then
      send (off + Unix.write_substring fd requests off (String.length requests - off))
  in
  send 0;
  let ic = Unix.in_channel_of_descr fd in
  for id = 1 to count do
    match Proto.reply_of_line (input_line ic) with
    | Error e -> Alcotest.failf "reply %d does not parse: %s" id e
    | Ok reply -> (
        Alcotest.(check int) "replies in request order" id reply.Proto.id;
        Alcotest.(check string) "ok" "ok" (Proto.status_name reply.Proto.status);
        match (big id, Json.member "name" reply.Proto.payload) with
        | true, Some (Json.Str name) ->
            Alcotest.(check bool) "a cache hit" true reply.Proto.cached;
            Alcotest.(check bool) "long name whole" true (String.equal big_name name)
        | true, _ -> Alcotest.failf "reply %d lacks its name" id
        | false, _ -> ())
  done;
  close_in ic;
  shut_down control 1;
  Domain.join daemon;
  Client.close control

(* Request lines cut anywhere across reads, or several to a read, get
   the replies whole lines get, byte for byte: a client writes each
   line whole, another one byte per write (with an empty line, which
   the reactor skips, before each), another two lines per write, and
   another each newline in a write of its own.  The short pauses
   between writes let the reactor read each write on its own. *)
let test_server_split_lines () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let socket = Filename.concat dir "slpd.sock" in
  let pool = Pool.create ~config:quick_config ~cache:(Cache.create ~dir) () in
  let daemon = Domain.spawn (fun () -> Server.run ~pool ~socket ()) in
  let control = connect ~socket 100 in
  let lines =
    [
      Proto.request_to_line { Proto.id = 1; op = Proto.Ping };
      "{\"id\": 2, \"op\": \"no-such-op\"}";
      "{\"id\": 3, \"op\":";
      Proto.request_to_line { Proto.id = 4; op = Proto.Ping };
    ]
  in
  let replies writes =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    List.iter
      (fun w ->
        ignore (Unix.write_substring fd w 0 (String.length w));
        Unix.sleepf 0.001)
      writes;
    let ic = Unix.in_channel_of_descr fd in
    let got = List.map (fun _ -> input_line ic) lines in
    close_in ic;
    got
  in
  let whole = replies (List.map (fun l -> l ^ "\n") lines) in
  Alcotest.(check (list int)) "one reply per line, in order" [ 1; 2; -1; 4 ]
    (List.map
       (fun r ->
         match Proto.reply_of_line r with
         | Ok reply -> reply.Proto.id
         | Error e -> Alcotest.failf "reply does not parse: %s" e)
       whole);
  let bytes =
    List.concat_map
      (fun l -> List.of_seq (Seq.map (String.make 1) (String.to_seq ("\n" ^ l ^ "\n"))))
      lines
  in
  let rec pairs = function
    | a :: b :: rest -> (a ^ "\n" ^ b ^ "\n") :: pairs rest
    | [ a ] -> [ a ^ "\n" ]
    | [] -> []
  in
  List.iter
    (fun (what, writes) -> Alcotest.(check (list string)) what whole (replies writes))
    [
      ("one byte per write", bytes);
      ("two requests per write", pairs lines);
      ("newline in its own write", List.concat_map (fun l -> [ l; "\n" ]) lines);
    ];
  shut_down control 1;
  Domain.join daemon;
  Client.close control

(* A second daemon on a live daemon's socket must refuse to start and
   leave the socket alone; a socket file nobody listens on is stale and
   is replaced.  Each daemon runs on its own domain, so a second daemon
   that wrongly takes the socket over fails this test instead of
   hanging it. *)
let test_server_socket_ownership () =
  Fault.disarm ();
  let dir = fresh_dir () in
  let socket = Filename.concat dir "slpd.sock" in
  let serve () =
    let pool = Pool.create ~config:quick_config ~cache:(Cache.create ~dir) () in
    let finished = Atomic.make false in
    let daemon =
      Domain.spawn (fun () ->
          Fun.protect
            ~finally:(fun () -> Atomic.set finished true)
            (fun () ->
              match Server.run ~pool ~socket () with
              | () -> None
              | exception Server.Socket_in_use path ->
                  Pool.shutdown pool;
                  Some path))
    in
    (daemon, finished)
  in
  let a, _ = serve () in
  let client = connect ~socket 100 in
  Alcotest.(check bool) "first daemon answers" true (ping_ok client 1);
  let b, b_finished = serve () in
  let rec settled tries =
    Atomic.get b_finished
    || tries > 0
       && begin
            Unix.sleepf 0.05;
            settled (tries - 1)
          end
  in
  if not (settled 100) then begin
    (* The second daemon took the path: stop it through the path, and
       the first through its open connection. *)
    let thief = Client.connect ~socket in
    shut_down thief 1;
    ignore (Domain.join b);
    Client.close thief;
    shut_down client 2;
    ignore (Domain.join a);
    Alcotest.fail "a second daemon took over a live daemon's socket"
  end;
  Alcotest.(check (option string))
    "second daemon refused, naming the path" (Some socket) (Domain.join b);
  Alcotest.(check bool) "first daemon still answers" true (ping_ok client 2);
  let again = Client.connect ~socket in
  Alcotest.(check bool) "the path still reaches it" true (ping_ok again 3);
  Client.close again;
  shut_down client 4;
  Alcotest.(check (option string)) "first daemon served" None (Domain.join a);
  Client.close client;
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket);
  Unix.close stale;
  Alcotest.(check bool) "stale socket file present" true (Sys.file_exists socket);
  let c, _ = serve () in
  let client = connect ~socket 100 in
  Alcotest.(check bool) "stale socket replaced" true (ping_ok client 1);
  shut_down client 2;
  Alcotest.(check (option string)) "replacement served" None (Domain.join c);
  Client.close client

(* -- service fault matrix (subset) ----------------------------------- *)

let test_service_matrix_subset () =
  let kernels =
    List.filteri (fun i _ -> i < 2) Slp_benchmarks.Suite.all
  in
  let outcomes =
    SF.run_matrix ~machines:[ M.intel_dunnington ] ~kernels ~dir:(fresh_dir ()) ()
  in
  List.iter
    (fun (o : SF.outcome) ->
      if not o.SF.ok then
        Printf.printf "FAIL %s at %s: status=%s attempts=%d codes=[%s] identical=%b lost=%b\n"
          o.SF.kernel (SF.point_name o.SF.point) o.SF.status o.SF.attempts
          (String.concat "; " o.SF.codes)
          o.SF.identical (not o.SF.no_lost_jobs))
    outcomes;
  Alcotest.(check int) "case count" (2 * 4) (List.length outcomes);
  Alcotest.(check bool) "all recovered" true (SF.all_ok outcomes)

let test_service_report_json () =
  let prog = Suite.program (List.hd Suite.all) in
  let o =
    SF.run_case ~dir:(fresh_dir ()) ~machine:M.intel_dunnington
      ~point:SF.Kill_worker prog
  in
  let json = SF.report_json [ o ] in
  let contains needle hay =
    let ln = String.length needle and lh = String.length hay in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "one case" true (contains "\"cases\": 1" json);
  Alcotest.(check bool) "names the point" true (contains "kill-worker" json)

let () =
  Alcotest.run "serve"
    [
      ( "deadline",
        [
          Alcotest.test_case "deadline basics" `Quick test_deadline_basics;
          Alcotest.test_case "fuel ticks check deadline" `Quick test_fuel_checks_deadline;
          Alcotest.test_case "compile honors deadline" `Quick test_compile_deadline;
          Alcotest.test_case "backoff is seeded and capped" `Quick test_backoff;
        ] );
      ( "cache",
        [
          Seeded.to_alcotest test_key_stability;
          Alcotest.test_case "fnv framing" `Quick test_fnv_framing;
          Alcotest.test_case "fnv hex digits" `Quick test_fnv_hex_into;
          Alcotest.test_case "integrity eviction" `Quick test_cache_integrity;
          Alcotest.test_case "corrupt-store fault" `Quick test_cache_corrupt_store_fault;
          Alcotest.test_case "create sweeps orphaned tmp" `Quick
            test_cache_sweeps_orphaned_tmp;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round-trip" `Quick test_proto_roundtrip;
          Alcotest.test_case "bad requests" `Quick test_bad_request;
        ] );
      ( "pool",
        [
          Alcotest.test_case "compute then cache" `Quick test_pool_basic_and_cached;
          Alcotest.test_case "a cached reply names its own job" `Quick
            test_pool_cached_reply_names_its_job;
          Alcotest.test_case "worker death retried" `Quick test_pool_retries_worker_death;
          Alcotest.test_case "poison job quarantined" `Quick test_pool_quarantines_poison;
          Alcotest.test_case "bounded queue sheds" `Quick test_pool_sheds_when_full;
          Alcotest.test_case "health snapshot" `Quick test_pool_health;
          Alcotest.test_case "layout replicas execute correct" `Quick
            test_execute_layout_replicas_correct;
          Alcotest.test_case "execute span traced" `Quick test_execute_span;
          Alcotest.test_case "Execute payloads pinned" `Slow
            test_execute_payloads_pinned;
          Alcotest.test_case "lost cache dir still answers ok" `Quick
            test_pool_survives_lost_cache_dir;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket end-to-end" `Quick test_server_end_to_end;
          Alcotest.test_case "health, metrics, unroutable" `Quick
            test_server_observability;
          Alcotest.test_case "live socket refused, stale replaced" `Quick
            test_server_socket_ownership;
          Alcotest.test_case "partial writes finish in order" `Quick
            test_server_partial_writes;
          Alcotest.test_case "reply dropped with its client counted" `Quick
            test_server_dropped_client_replies;
          Alcotest.test_case "lines split across reads" `Quick test_server_split_lines;
        ] );
      ( "fault matrix",
        [
          Alcotest.test_case "service matrix subset" `Slow test_service_matrix_subset;
          Alcotest.test_case "service report json" `Quick test_service_report_json;
        ] );
    ]
