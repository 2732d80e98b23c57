module E = Slp_util.Slp_error
module Fnv = Slp_util.Fnv
module P = Slp_pipeline.Pipeline
module Json = Slp_obs.Json
module Obs = Slp_obs.Obs
module Env = Slp_ir.Env
module Memory = Slp_vm.Memory

(* Fold the final memory image into one digest.  Values go in as the
   raw bit patterns of sorted arrays then sorted scalars, so two runs
   agree iff their memories are bit-identical — the same criterion
   [Memory.same_contents] applies, compressed to 64 bits for the wire.
   The bytes stream straight into the hash; nothing buffers the image. *)
let memory_digest mem ~(env : Env.t) =
  let h = ref (Fnv.hash64 "") in
  let add s = h := Fnv.string_into !h s in
  let add_value v = h := Fnv.hex_into !h (Int64.bits_of_float v) ';' in
  let names_of l = List.sort String.compare (List.map fst l) in
  List.iter
    (fun name ->
      add name;
      add ":";
      Float.Array.iter add_value (Memory.array_values mem name))
    (names_of (Env.arrays env));
  List.iter
    (fun name ->
      add name;
      add "=";
      add_value (Memory.scalar mem name))
    (names_of (Env.scalars env));
  Fnv.to_hex !h

let vector_digest = function
  | None -> "scalar"
  | Some v -> Fnv.to_hex (Fnv.hash64 (Format.asprintf "%a" Slp_vm.Visa.pp_program v))

let compile_payload ~(spec : Proto.spec) (c : P.compiled) =
  Json.Obj
    [
      ("op", Json.Str "compile");
      ("name", Json.Str spec.Proto.name);
      ("scheme", Json.Str (Proto.scheme_to_string c.P.scheme));
      ("machine", Json.Str (Proto.machine_to_string c.P.machine));
      ("unroll", Json.Num (float_of_int c.P.unroll_factor));
      ("vector", Json.Str (vector_digest c.P.vector));
      ("spills", Json.Num (float_of_int c.P.spill_stats.Slp_codegen.Regalloc.spills));
      ("solver_bails", Json.Num (float_of_int (List.length c.P.solver_bails)));
    ]

let execute_payload ~obs ~(spec : Proto.spec) (c : P.compiled) =
  let r, final_memory =
    P.execute_with_memory ~cores:spec.Proto.cores ~seed:spec.Proto.seed ~obs c
  in
  let env =
    match c.P.vector with
    | None -> c.P.reference.Slp_ir.Program.env
    | Some v -> v.Slp_vm.Visa.env
  in
  let digest = Obs.span obs "digest" (fun () -> memory_digest final_memory ~env) in
  Json.Obj
    [
      ("op", Json.Str "execute");
      ("name", Json.Str spec.Proto.name);
      ("scheme", Json.Str (Proto.scheme_to_string c.P.scheme));
      ("machine", Json.Str (Proto.machine_to_string c.P.machine));
      ("unroll", Json.Num (float_of_int c.P.unroll_factor));
      ("memory", Json.Str digest);
      ( "cycles",
        Json.Str
          (Printf.sprintf "%Lx"
             (Int64.bits_of_float (Slp_vm.Counters.total_cycles r.P.counters))) );
      ( "instructions",
        Json.Num (float_of_int (Slp_vm.Counters.total_instructions r.P.counters)) );
      ("correct", Json.Bool r.P.correct);
    ]

let named ~(spec : Proto.spec) = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "name" then (k, Json.Str spec.Proto.name) else (k, v))
           fields)
  | payload -> payload

let payload ~obs ~op ~spec c =
  match (op : Proto.jobop) with
  | Proto.Compile -> compile_payload ~spec c
  | Proto.Execute -> execute_payload ~obs ~spec c

let unroll (spec : Proto.spec) =
  Option.value spec.Proto.unroll ~default:(P.default_unroll spec.Proto.machine)

let options (spec : Proto.spec) =
  {
    P.default_options with
    P.max_steps = spec.Proto.max_steps;
    solver_steps =
      Option.value spec.Proto.solver_steps
        ~default:P.default_options.P.solver_steps;
  }

let deadline_of ?(clock = Fault.now) (spec : Proto.spec) =
  Option.map (fun seconds -> E.Deadline.create ~clock ~seconds) spec.Proto.timeout

let run ?clock ?(obs = Obs.none) ~op ~(spec : Proto.spec) prog =
  let deadline = deadline_of ?clock spec in
  match
    P.compile ~unroll:(unroll spec) ~options:(options spec) ?deadline ~obs
      ~on_stage:Fault.stage_hook ~scheme:spec.Proto.scheme
      ~machine:spec.Proto.machine prog
  with
  | c -> ( try Result.Ok (payload ~obs ~op ~spec c) with
      | Fault.Worker_killed -> raise Fault.Worker_killed
      | exn -> Result.Error (P.error_of_exn exn))
  | exception Fault.Worker_killed -> raise Fault.Worker_killed
  | exception exn -> Result.Error (P.error_of_exn exn)

let run_degraded ~op ~(spec : Proto.spec) prog =
  let r =
    P.compile_resilient ~unroll:(unroll spec) ~options:(options spec)
      ~scheme:spec.Proto.scheme ~machine:spec.Proto.machine prog
  in
  let errors = List.map (fun b -> b.P.error) r.P.bailouts in
  match payload ~obs:Obs.none ~op ~spec r.P.result with
  | p -> (p, errors)
  | exception exn ->
      (* Even the scalar fallback failed to run; ship the errors alone. *)
      (Json.Null, errors @ [ P.error_of_exn exn ])
