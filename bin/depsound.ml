(* Dependence-soundness smoke driver.

   For every suite kernel, dumps the static dependence graph (edges
   with distance/direction vectors, reduction verdicts) as JSON and
   replays the dynamic tracer over the unrolled reference program of
   each scheme x machine (Intel and AMD at 128 bits, and Intel widened
   to 256 and 512 bits as Figure 18 does, with the unroll scaled by the
   width so the largest blocks are replayed too), verifying that no
   statically-independent statement pair ever conflicts on a concrete
   address and that [Parallel] verdicts hold under the real access
   streams.  Each leg
   also records the chunk-independence verdict of its vector program,
   so a kernel whose vector code gets a different verdict from its
   reference shows in the JSON.  An optional fuzz sample runs the same
   tracer over generated kernels.

   Exit status 0 when every check is clean, 1 on any violation. *)

module Suite = Slp_benchmarks.Suite
module Machine = Slp_machine.Machine
module Pipeline = Slp_pipeline.Pipeline
module Depend = Slp_depend.Depend
module Dtrace = Slp_depend.Dtrace
module Parcheck = Slp_vm.Parcheck
module Json = Slp_obs.Json

let machines =
  List.map
    (fun m -> (Machine.to_string m, m))
    [ Machine.intel_dunnington; Machine.amd_phenom_ii ]
  @ List.map
      (fun bits ->
        ( Printf.sprintf "intel%d" bits,
          Machine.with_simd_bits Machine.intel_dunnington bits ))
      [ 256; 512 ]

let out_dir = ref "_deps"
let fuzz_count = ref 0
let violations = ref 0

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let verdict_json = function
  | Depend.Serial reason ->
      Json.Obj [ ("parallel", Json.Bool false); ("reason", Json.Str reason) ]
  | Depend.Parallel { reductions } ->
      Json.Obj
        [
          ("parallel", Json.Bool true);
          ( "reductions",
            Json.Arr
              (List.map
                 (fun (s, op) ->
                   Json.Obj
                     [ ("scalar", Json.Str s); ("op", Json.Str (Depend.op_string op)) ])
                 reductions) );
        ]

(* The verdict the engine acts on for a scalar program. *)
let verdict_of prog = Parcheck.analyze (Slp_vm.Visa.of_program prog)

let trace_program ~label prog =
  let report = Dtrace.check ~verdict:(verdict_of prog) prog in
  List.iter
    (fun v ->
      incr violations;
      Printf.printf "VIOLATION %s: %s\n%!" label v)
    report.Dtrace.violations;
  report

let run_kernel (k : Suite.t) =
  let prog = Suite.program k in
  let verdict = verdict_of prog in
  let graph = Depend.of_program prog in
  let base_report = trace_program ~label:k.Suite.name prog in
  (* one tracer replay per distinct unrolled reference program;
     the scheme x machine matrix below shares pre-processing, so
     dedupe by structure and report which legs each replay covered *)
  let seen : (Slp_ir.Program.t * Dtrace.report) list ref = ref [] in
  let legs =
    List.concat_map
      (fun scheme ->
        List.map
          (fun (mname, machine) ->
            let label =
              Printf.sprintf "%s/%s/%s" k.Suite.name
                (Pipeline.scheme_name scheme)
                mname
            in
            let unroll =
              max 1 (k.Suite.unroll * machine.Machine.simd_bits / 128)
            in
            let compiled =
              Pipeline.compile ~unroll ~verify:false ~scheme ~machine prog
            in
            let reference = compiled.Pipeline.reference in
            let report =
              match
                List.find_opt
                  (fun (p, _) -> Slp_ir.Program.equal_structure p reference)
                  !seen
              with
              | Some (_, r) -> r
              | None ->
                  let r = trace_program ~label reference in
                  seen := (reference, r) :: !seen;
                  r
            in
            Json.Obj
              [
                ("scheme", Json.Str (Pipeline.scheme_name scheme));
                ("machine", Json.Str mname);
                ("events", Json.Num (float_of_int report.Dtrace.events));
                ( "violations",
                  Json.Num (float_of_int (List.length report.Dtrace.violations))
                );
                ( "vector_verdict",
                  match compiled.Pipeline.vector with
                  | Some v -> verdict_json (Parcheck.analyze v)
                  | None -> Json.Null );
              ])
          machines)
      Pipeline.all_schemes
  in
  let json =
    Json.Obj
      [
        ("kernel", Json.Str k.Suite.name);
        ("graph", Depend.to_json graph);
        ("verdict", verdict_json verdict);
        ("base_events", Json.Num (float_of_int base_report.Dtrace.events));
        ("legs", Json.Arr legs);
      ]
  in
  write_json (Filename.concat !out_dir (k.Suite.name ^ ".json")) json;
  Printf.printf "%-12s %7d events  %d edges  %s\n%!" k.Suite.name
    base_report.Dtrace.events
    (List.length graph.Depend.edges)
    (match verdict with
    | Depend.Parallel { reductions = [] } -> "parallel"
    | Depend.Parallel { reductions } ->
        "parallel+reductions:"
        ^ String.concat "," (List.map fst reductions)
    | Depend.Serial r -> "serial:" ^ r)

let run_fuzz n =
  let clean = ref 0 in
  for i = 0 to n - 1 do
    let rng = Slp_util.Prng.create (0x5eed + i) in
    let prog = Slp_fuzz.Gen.program ~name:(Printf.sprintf "fuzz%d" i) rng in
    let report = trace_program ~label:(Printf.sprintf "fuzz/%d" i) prog in
    if report.Dtrace.violations = [] then incr clean
  done;
  Printf.printf "fuzz: %d/%d cases clean\n%!" !clean n

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | "--out" :: dir :: rest ->
        out_dir := dir;
        parse rest
    | "--fuzz" :: n :: rest ->
        fuzz_count := int_of_string n;
        parse rest
    | [] -> ()
    | arg :: _ ->
        prerr_endline ("depsound: unknown argument " ^ arg);
        exit 2
  in
  parse (List.tl args);
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  List.iter run_kernel Suite.all;
  if !fuzz_count > 0 then run_fuzz !fuzz_count;
  if !violations > 0 then begin
    Printf.printf "depsound: %d violation(s)\n%!" !violations;
    exit 1
  end
  else Printf.printf "depsound: all checks clean\n%!"
