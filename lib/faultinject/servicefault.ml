open Slp_ir
module E = Slp_util.Slp_error
module M = Slp_machine.Machine
module P = Slp_pipeline.Pipeline
module Json = Slp_obs.Json
module Metric = Slp_obs.Metric
module Proto = Slp_serve.Proto
module Job = Slp_serve.Job
module Fault = Slp_serve.Fault
module Cache = Slp_serve.Cache
module Pool = Slp_serve.Pool

type point = Kill_worker | Clock_skip | Cache_corrupt | Client_drop

let point_name = function
  | Kill_worker -> "kill-worker"
  | Clock_skip -> "clock-skip"
  | Cache_corrupt -> "cache-corrupt"
  | Client_drop -> "client-drop"

let all_points = [ Kill_worker; Clock_skip; Cache_corrupt; Client_drop ]

type outcome = {
  kernel : string;
  machine : string;
  point : point;
  status : string;
  attempts : int;
  codes : string list;
  expected : string;
  code_seen : bool;
  identical : bool;
  no_lost_jobs : bool;
  ok : bool;
}

(* Single worker, instant retries: with one worker the n-th armed
   firing lands on a known job, so every case is deterministic. *)
let case_config =
  { Pool.default_config with Pool.workers = 1; sleep = (fun _ -> ()) }

let payload_string reply = Json.to_string reply.Proto.payload

let codes_of_reply reply =
  List.map (fun (e : E.t) -> E.code_name e.E.code) reply.Proto.errors

let run_case ?(scheme = P.Global_layout) ~dir ~machine ~point prog =
  Fault.disarm ();
  let op = Proto.Execute in
  let spec =
    let base = Proto.default_spec ~kernel:(Program.to_source prog) ~name:prog.Program.name in
    {
      base with
      Proto.scheme;
      machine;
      timeout = (match point with Clock_skip -> Some 30.0 | _ -> None);
    }
  in
  (* The one-shot oracle: what a lone, unfaulted attempt answers. *)
  let oracle =
    match Job.run ~op ~spec prog with
    | Result.Ok payload -> Json.to_string payload
    | Result.Error e -> failwith ("service fault oracle failed: " ^ E.to_string e)
  in
  let cache =
    Cache.create ~dir:(Filename.concat dir (point_name point ^ "-" ^ prog.Program.name))
  in
  Cache.clear cache;
  let pool = Pool.create ~config:case_config ~cache () in
  let finish outcome =
    Pool.shutdown pool;
    Fault.disarm ();
    outcome
  in
  let run ?(id = 1) () = Pool.run_sync pool ~id ~op ~spec () in
  let base ~status ~attempts ~codes ~expected ~code_seen ~identical ~no_lost_jobs =
    {
      kernel = prog.Program.name;
      machine = machine.M.name;
      point;
      status;
      attempts;
      codes;
      expected;
      code_seen;
      identical;
      no_lost_jobs;
      ok = code_seen && identical && no_lost_jobs;
    }
  in
  match point with
  | Kill_worker ->
      (* The worker dies under the first job; it recovers in place,
         and the retry must answer exactly what a healthy one-shot run
         answers. *)
      Fault.arm (Fault.Kill_worker 1);
      let reply = run () in
      Pool.drain pool;
      let expected = E.code_name E.Internal in
      let codes = codes_of_reply reply in
      finish
        (base
           ~status:(Proto.status_name reply.Proto.status)
           ~attempts:reply.Proto.attempts ~codes ~expected
           ~code_seen:
             (reply.Proto.status = Proto.Ok
             && reply.Proto.attempts = 2
             && List.mem expected codes
             && Metric.get (Pool.metrics pool) "worker_restarts_total" >= 1.0)
           ~identical:(payload_string reply = oracle)
           ~no_lost_jobs:true)
  | Clock_skip ->
      (* The clock jumps an hour at the first stage boundary, blowing
         the 30s deadline; the breach is a structured BAIL16 and the
         retry (deadline re-armed from the skewed clock) succeeds. *)
      Fault.arm (Fault.Clock_skip (3600.0, 1));
      let reply = run () in
      Pool.drain pool;
      let expected = E.code_name E.Deadline_exceeded in
      let codes = codes_of_reply reply in
      finish
        (base
           ~status:(Proto.status_name reply.Proto.status)
           ~attempts:reply.Proto.attempts ~codes ~expected
           ~code_seen:
             (reply.Proto.status = Proto.Ok
             && reply.Proto.attempts = 2
             && List.mem expected codes)
           ~identical:(payload_string reply = oracle)
           ~no_lost_jobs:true)
  | Cache_corrupt ->
      (* The first store is bit-flipped on disk.  The first reply is
         computed in memory and unharmed; the second submission must
         detect the bad digest, evict, recompile — and the third then
         hits the healed entry. *)
      Fault.arm (Fault.Corrupt_store 1);
      let first = run ~id:1 () in
      let second = run ~id:2 () in
      let third = run ~id:3 () in
      Pool.drain pool;
      let stats = Cache.stats cache in
      finish
        (base
           ~status:(Proto.status_name second.Proto.status)
           ~attempts:second.Proto.attempts
           ~codes:(codes_of_reply first @ codes_of_reply second @ codes_of_reply third)
           ~expected:"-"
           ~code_seen:
             (stats.Cache.corrupt_evictions = 1
             && second.Proto.status = Proto.Ok
             && (not second.Proto.cached)
             && third.Proto.status = Proto.Ok
             && third.Proto.cached)
           ~identical:
             (payload_string first = oracle
             && payload_string second = oracle
             && payload_string third = oracle)
           ~no_lost_jobs:true)
  | Client_drop ->
      (* The client vanishes before its reply lands.  The job must
         still complete and be cached (not lost), the pool must drain
         to idle, and a replay of the same request must answer from
         the cache, bit-identical. *)
      Fault.arm (Fault.Drop_client 1);
      Pool.submit pool ~id:1 ~op ~spec ~reply:(fun _ -> ());
      Pool.drain pool;
      let dropped =
        Metric.get ~where:[ ("outcome", "dropped") ] (Pool.metrics pool)
          "replies_total"
      in
      let replay = run ~id:2 () in
      finish
        (base
           ~status:(Proto.status_name replay.Proto.status)
           ~attempts:replay.Proto.attempts
           ~codes:(codes_of_reply replay)
           ~expected:"-"
           ~code_seen:(dropped >= 1.0 && replay.Proto.cached)
           ~identical:(payload_string replay = oracle)
           ~no_lost_jobs:
             (Metric.get ~where:[ ("outcome", "ok") ] (Pool.metrics pool)
                "jobs_total"
             = 1.0))

let run_matrix ?(machines = [ M.intel_dunnington ]) ?(points = all_points)
    ?(kernels = Slp_benchmarks.Suite.all) ~dir () =
  List.concat_map
    (fun bench ->
      let prog = Slp_benchmarks.Suite.program bench in
      List.concat_map
        (fun machine ->
          List.map (fun point -> run_case ~dir ~machine ~point prog) points)
        machines)
    kernels

let all_ok outcomes = List.for_all (fun o -> o.ok) outcomes
let failures outcomes = List.filter (fun o -> not o.ok) outcomes

let outcome_to_json o =
  Printf.sprintf
    "{\"kernel\": \"%s\", \"machine\": \"%s\", \"point\": \"%s\", \"status\": \
     \"%s\", \"attempts\": %d, \"codes\": [%s], \"expected\": \"%s\", \
     \"code_seen\": %b, \"identical\": %b, \"no_lost_jobs\": %b, \"ok\": %b}"
    (E.json_escape o.kernel) (E.json_escape o.machine)
    (E.json_escape (point_name o.point))
    (E.json_escape o.status) o.attempts
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "\"%s\"" (E.json_escape c)) o.codes))
    (E.json_escape o.expected) o.code_seen o.identical o.no_lost_jobs o.ok

let report_json outcomes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"cases\": %d, \"failures\": %d, \"outcomes\": ["
       (List.length outcomes)
       (List.length (failures outcomes)));
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (outcome_to_json o))
    outcomes;
  Buffer.add_string buf "]}";
  Buffer.contents buf
