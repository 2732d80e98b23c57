module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Suite = Slp_benchmarks.Suite

type key = {
  bench : string;
  scheme : Pipeline.scheme;
  machine_name : string;
  simd_bits : int;
  cores : int;
}

type measurement = {
  key : key;
  counters : Slp_vm.Counters.t;
  correct : bool;
  compile_seconds : float;
  replica_count : int;
}

let cache : (key, measurement) Hashtbl.t = Hashtbl.create 128

(* One domain pool shared by every multicore measurement, spawned
   lazily on first use and sized to the host (zero workers on a
   single-processor machine, where the engine falls back to the
   bit-identical sequential legs). *)
let pool = lazy (Slp_vm.Dpool.create ())
let domain_pool () = Lazy.force pool

(* Resilient mode, with its compile options: a kernel whose
   compilation fails under some scheme is measured as its scalar
   degradation instead of aborting the whole experiment run; bailouts
   accumulate for the final report. *)
let resilient = ref None
let collected_bailouts : Pipeline.bailout list ref = ref []

let set_resilient ?steps on =
  resilient :=
    if on then Some { Pipeline.default_options with Pipeline.max_steps = steps } else None

let bailouts () = List.rev !collected_bailouts
let clear_bailouts () = collected_bailouts := []

let measure ?(cores = 1) ~machine ~scheme (b : Suite.t) =
  let key =
    {
      bench = b.Suite.name;
      scheme;
      machine_name = machine.Machine.name;
      simd_bits = machine.Machine.simd_bits;
      cores;
    }
  in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
      let prog = Suite.program b in
      let unroll = max 1 (b.Suite.unroll * machine.Machine.simd_bits / 128) in
      let compiled =
        match !resilient with
        | Some options ->
            let r = Pipeline.compile_resilient ~unroll ~options ~scheme ~machine prog in
            collected_bailouts := List.rev_append r.Pipeline.bailouts !collected_bailouts;
            r.Pipeline.result
        | None -> Pipeline.compile ~unroll ~scheme ~machine prog
      in
      let r, exec_error =
        if Option.is_some !resilient then
          Pipeline.execute_resilient ~cores ~check:(cores = 1) compiled
        else
          ( Pipeline.execute ~cores ~check:(cores = 1)
              ?pool:(if cores > 1 then Some (domain_pool ()) else None)
              compiled,
            None )
      in
      (match exec_error with
      | Some error ->
          collected_bailouts :=
            {
              Pipeline.kernel = b.Suite.name;
              scheme;
              machine = machine.Machine.name;
              error;
            }
            :: !collected_bailouts
      | None -> ());
      let m =
        {
          key;
          counters = r.Pipeline.counters;
          correct = r.Pipeline.correct;
          compile_seconds = compiled.Pipeline.compile_seconds;
          replica_count = compiled.Pipeline.replica_count;
        }
      in
      Hashtbl.replace cache key m;
      m

let cycles m = Slp_vm.Counters.total_cycles m.counters

let reduction ~baseline m = 1.0 -. (cycles m /. cycles baseline)

let clear_cache () = Hashtbl.reset cache
