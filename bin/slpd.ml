(* slpd — the compile-service daemon and its client driver.

   [slpd serve] binds a Unix socket and serves line-delimited JSON
   compile/execute jobs on a pool of worker domains, each of which
   recovers in place from a job that fails or kills it, with a
   content-addressed result cache (default layout under _serve/).
   [slpd submit] sends one job, [slpd ping] checks liveness, and
   [slpd campaign] is the CI smoke driver: concurrent clients fire
   every suite kernel at a live daemon (typically started with a
   --fault armed) and every reply must arrive and match an in-process
   oracle — zero lost jobs, zero wrong answers. *)

open Cmdliner
module E = Slp_util.Slp_error
module P = Slp_pipeline.Pipeline
module M = Slp_machine.Machine
module Json = Slp_obs.Json
module Log = Slp_obs.Log
module Tracehub = Slp_obs.Tracehub
module Proto = Slp_serve.Proto
module Telemetry = Slp_serve.Telemetry
module Cache = Slp_serve.Cache
module Fault = Slp_serve.Fault
module Job = Slp_serve.Job
module Pool = Slp_serve.Pool
module Server = Slp_serve.Server
module Client = Slp_serve.Client
module Suite = Slp_benchmarks.Suite

let default_socket = Filename.concat "_serve" "slpd.sock"
let default_cache = Filename.concat "_serve" "cache"

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path.")

(* -- serve ----------------------------------------------------------- *)

let fault_of_string s =
  let num d = try Some (int_of_string d) with Failure _ -> None in
  match String.split_on_char ':' s with
  | [ "kill-worker"; n ] -> Option.map (fun n -> Fault.Kill_worker n) (num n)
  | [ "clock-skip"; secs; n ] ->
      Option.bind (num n) (fun n ->
          try Some (Fault.Clock_skip (float_of_string secs, n)) with _ -> None)
  | [ "corrupt-store"; n ] -> Option.map (fun n -> Fault.Corrupt_store n) (num n)
  | [ "drop-client"; n ] -> Option.map (fun n -> Fault.Drop_client n) (num n)
  | _ -> None

let serve socket cache_dir workers queue_depth max_attempts timeout faults
    log_file log_level trace_file =
  let level =
    match Log.level_of_string log_level with
    | Some l -> l
    | None ->
        Printf.eprintf
          "slpd: bad --log-level %S (debug|info|warn|error|off)\n" log_level;
        exit 2
  in
  let armed =
    List.map
      (fun s ->
        match fault_of_string s with
        | Some point -> point
        | None ->
            Printf.eprintf
              "slpd: bad --fault %S (kill-worker:N | clock-skip:SECS:N | \
               corrupt-store:N | drop-client:N)\n"
              s;
            exit 2)
      faults
  in
  List.iter Fault.arm armed;
  let config =
    {
      Pool.default_config with
      Pool.workers;
      queue_depth;
      max_attempts;
      default_timeout = timeout;
    }
  in
  let log = Log.create ~level () in
  Option.iter (Log.with_file log) log_file;
  let hub = Option.map (fun _ -> Tracehub.create ()) trace_file in
  let telem = Telemetry.create ~log ?hub () in
  let pool =
    Pool.create ~config ~telem ~cache:(Cache.create ~dir:cache_dir) ()
  in
  Printf.printf "slpd: serving on %s (%d workers, cache %s)\n%!" socket workers
    cache_dir;
  match Server.run ~pool ~socket () with
  | exception Server.Socket_in_use path ->
      Pool.shutdown pool;
      Log.close log;
      Printf.eprintf "slpd: a live daemon already serves %s; not starting\n" path;
      2
  | () ->
      print_endline (Json.to_string (Server.stats_json pool));
      (match (trace_file, hub) with
      | Some path, Some hub ->
          Tracehub.write_file hub path;
          Printf.printf "slpd: wrote campaign trace (%d domain rows) to %s\n"
            (Tracehub.domains hub) path
      | _ -> ());
      Log.close log;
      0

let serve_cmd =
  let cache_dir =
    Arg.(
      value
      & opt string default_cache
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Content-addressed result cache directory.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Queued-job bound; beyond it jobs are shed with an overloaded \
                reply.")
  in
  let max_attempts =
    Arg.(
      value & opt int 3
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Attempts before a failing job is quarantined and degraded.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Default per-job wall-clock deadline for specs without one.")
  in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"POINT"
          ~doc:
            "Arm a one-shot service fault before serving (repeatable): \
             kill-worker:N, clock-skip:SECS:N, corrupt-store:N, \
             drop-client:N.  For smoke testing the recovery paths.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Append structured JSON-line log events to FILE.")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LVL"
          ~doc:"Log threshold: debug, info, warn, error, or off.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record reactor and worker-domain spans and write the merged \
             Chrome trace (one row per domain) to FILE on exit.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"run the compile-service daemon"
       ~exits:
         (Cmd.Exit.info 2 ~doc:"a live daemon already serves the socket."
         :: Cmd.Exit.defaults))
    Term.(
      const serve $ socket_arg $ cache_dir $ workers $ queue_depth
      $ max_attempts $ timeout $ faults $ log_file $ log_level $ trace_file)

(* -- shared client helpers ------------------------------------------- *)

let conv of_string to_string ~error =
  let parse s = Option.to_result ~none:(`Msg (error s)) (of_string s) in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let scheme_conv =
  conv Proto.scheme_of_string Proto.scheme_to_string
    ~error:(Printf.sprintf "unknown scheme %S")

let machine_conv =
  conv Proto.machine_of_string Proto.machine_to_string
    ~error:(Printf.sprintf "unknown machine %S (intel|amd)")

let connect socket =
  match Client.connect ~socket with
  | c -> c
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "slpd: cannot connect to %s: %s\n" socket
        (Unix.error_message e);
      exit 2

(* -- ping ------------------------------------------------------------ *)

let ping socket =
  let c = connect socket in
  let reply = Client.call c { Proto.id = 1; op = Proto.Ping } in
  Client.close c;
  print_endline (Proto.status_name reply.Proto.status);
  if reply.Proto.status = Proto.Ok then 0 else 1

let ping_cmd =
  Cmd.v (Cmd.info "ping" ~doc:"check daemon liveness") Term.(const ping $ socket_arg)

(* -- submit ---------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let submit socket file op scheme machine unroll timeout cores seed =
  let kernel = read_file file in
  let name = Filename.remove_extension (Filename.basename file) in
  let spec =
    {
      (Proto.default_spec ~kernel ~name) with
      Proto.scheme;
      machine;
      unroll;
      timeout;
      cores;
      seed;
    }
  in
  let jop = if op = "compile" then Proto.Compile else Proto.Execute in
  let c = connect socket in
  let reply = Client.call c { Proto.id = 1; op = Proto.Job (jop, spec) } in
  Client.close c;
  print_endline (Proto.reply_to_line reply);
  match reply.Proto.status with
  | Proto.Ok -> 0
  | Proto.Degraded -> 3
  | _ -> 2

let submit_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"Kernel source file.")
  in
  let op =
    Arg.(
      value
      & opt (enum [ ("compile", "compile"); ("execute", "execute") ]) "execute"
      & info [ "op" ] ~docv:"OP" ~doc:"Job operation: compile or execute.")
  in
  let scheme =
    Arg.(
      value & opt scheme_conv P.Global
      & info [ "s"; "scheme" ] ~docv:"SCHEME"
          ~doc:"scalar, native, slp, global, global-layout, optimal.")
  in
  let machine =
    Arg.(
      value
      & opt machine_conv M.intel_dunnington
      & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"intel or amd.")
  in
  let unroll =
    Arg.(value & opt (some int) None & info [ "u"; "unroll" ] ~docv:"N" ~doc:"Unroll factor.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS" ~doc:"Per-job wall-clock deadline.")
  in
  let cores =
    Arg.(value & opt int 1 & info [ "cores" ] ~docv:"N" ~doc:"Simulated cores.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Input data seed.")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"send one job to a running daemon")
    Term.(
      const submit $ socket_arg $ file $ op $ scheme $ machine $ unroll
      $ timeout $ cores $ seed)

(* -- campaign -------------------------------------------------------- *)

(* Each client domain owns one connection and fires its slice of the
   suite; replies must all arrive (the daemon may be mid worker-kill)
   and every payload must equal the in-process oracle. *)
let campaign socket clients scheme =
  let specs =
    List.map
      (fun bench ->
        let prog = Suite.program bench in
        ( {
            (Proto.default_spec
               ~kernel:(Slp_ir.Program.to_source prog)
               ~name:prog.Slp_ir.Program.name)
            with
            Proto.scheme;
          },
          prog ))
      Suite.all
  in
  Printf.printf "campaign: %d kernels over %d clients\n%!" (List.length specs)
    clients;
  let oracle =
    List.map
      (fun (spec, prog) ->
        match Job.run ~op:Proto.Execute ~spec prog with
        | Result.Ok payload -> (spec.Proto.name, Json.to_string payload)
        | Result.Error e ->
            Printf.eprintf "campaign: oracle failed for %s: %s\n"
              spec.Proto.name (E.to_string e);
            exit 2)
      specs
  in
  let slices = Array.make clients [] in
  List.iteri
    (fun i (spec, _) -> slices.(i mod clients) <- spec :: slices.(i mod clients))
    specs;
  let run_client slice =
    let c = connect socket in
    let replies =
      List.mapi
        (fun i spec ->
          ( spec.Proto.name,
            Client.call c { Proto.id = i + 1; op = Proto.Job (Proto.Execute, spec) }
          ))
        slice
    in
    Client.close c;
    replies
  in
  let domains =
    Array.map (fun slice -> Domain.spawn (fun () -> run_client slice)) slices
  in
  let replies = Array.to_list domains |> List.concat_map Domain.join in
  let failures =
    List.filter_map
      (fun (name, (reply : Proto.reply)) ->
        let expected = List.assoc name oracle in
        if reply.Proto.status <> Proto.Ok then
          Some
            (Printf.sprintf "%s: status %s" name
               (Proto.status_name reply.Proto.status))
        else if Json.to_string reply.Proto.payload <> expected then
          Some (Printf.sprintf "%s: payload mismatch vs oracle" name)
        else None)
      replies
  in
  let lost = List.length specs - List.length replies in
  Printf.printf "campaign: %d replies, %d lost, %d failures\n" (List.length replies)
    lost (List.length failures);
  List.iter (fun f -> Printf.printf "  FAIL %s\n" f) failures;
  if lost = 0 && failures = [] then 0 else 1

let campaign_cmd =
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let scheme =
    Arg.(
      value & opt scheme_conv P.Global_layout
      & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc:"Scheme for every job.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"fire the whole suite at a daemon from concurrent clients and \
             verify every reply against an in-process oracle")
    Term.(const campaign $ socket_arg $ clients $ scheme)

(* -- stats / metrics / health ---------------------------------------- *)

let watch_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "watch" ] ~docv:"SECS"
        ~doc:"Re-poll every SECS seconds until interrupted.")

(* One poll per connection; in watch mode the daemon may restart
   between polls, so each round reconnects from scratch. *)
let repeated watch poll =
  match watch with
  | None -> poll ()
  | Some secs ->
      let rec loop () =
        ignore (poll ());
        Unix.sleepf secs;
        loop ()
      in
      loop ()

let one_shot op render socket =
  let c = connect socket in
  let reply = Client.call c { Proto.id = 1; op } in
  Client.close c;
  render reply.Proto.payload;
  if reply.Proto.status = Proto.Ok then 0 else 1

let stats socket watch =
  repeated watch (fun () ->
      one_shot Proto.Stats
        (fun payload -> print_endline (Json.to_string payload))
        socket)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"print daemon statistics")
    Term.(const stats $ socket_arg $ watch_arg)

let metrics socket =
  one_shot Proto.Metrics
    (fun payload ->
      match payload with
      | Json.Str text -> print_string text
      | j -> print_endline (Json.to_string j))
    socket

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"print the daemon's Prometheus text exposition")
    Term.(const metrics $ socket_arg)

let health socket watch =
  repeated watch (fun () ->
      let c = connect socket in
      let reply = Client.call c { Proto.id = 1; op = Proto.Health } in
      Client.close c;
      print_endline (Json.to_string reply.Proto.payload);
      let ready =
        match Json.member "ready" reply.Proto.payload with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      if reply.Proto.status = Proto.Ok && ready then 0 else 1)

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "check daemon liveness/readiness; exit 0 only when ready (live \
          workers, queue below the shed threshold, not draining)")
    Term.(const health $ socket_arg $ watch_arg)

let cmd =
  Cmd.group
    (Cmd.info "slpd" ~version:"1.0"
       ~doc:"self-healing compile service for the SLP framework")
    [
      serve_cmd; submit_cmd; campaign_cmd; ping_cmd; stats_cmd; metrics_cmd;
      health_cmd;
    ]

let () = exit (Cmd.eval' cmd)
