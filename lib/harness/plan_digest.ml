(* Plan digests: one fingerprint per distinct compile job of the two
   benchmark workloads, so two builds of the compiler can be compared
   for bit-identical output without storing the outputs.

   The job list is rebuilt here from the suite and the machine models:
   every kernel x every scheme x {Intel, AMD} at 128 bits, plus the
   widened Intel model of Figure 18 at 128 and 256 bits (every scheme
   but Scalar) and at 512 bits (Native, SLP, Global).  Jobs that occur
   in both lists count once, which leaves 320.  Each compile runs as
   the benchmark runs it: verifier on, unroll scaled to the width. *)

module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Suite = Slp_benchmarks.Suite
module Driver = Slp_core.Driver
module Schedule = Slp_core.Schedule
module Cost = Slp_core.Cost
module Block = Slp_ir.Block

type job = {
  kernel : Suite.t;
  scheme : Pipeline.scheme;
  machine : Machine.t;
}

let machine_tag (m : Machine.t) =
  if m.Machine.name = Machine.amd_phenom_ii.Machine.name then "amd" else "intel"

let job_name j =
  Printf.sprintf "%s/%s/%s/%d" j.kernel.Suite.name
    (Pipeline.scheme_name j.scheme)
    (machine_tag j.machine) j.machine.Machine.simd_bits

let unroll j = max 1 (j.kernel.Suite.unroll * j.machine.Machine.simd_bits / 128)

let jobs () =
  let all machine schemes =
    List.concat_map
      (fun kernel -> List.map (fun scheme -> { kernel; scheme; machine }) schemes)
      Suite.all
  in
  let narrow = Pipeline.[ Native; Slp; Global; Global_layout; Optimal ] in
  let wide = Pipeline.[ Native; Slp; Global ] in
  let intel bits = Machine.with_simd_bits Machine.intel_dunnington bits in
  let listed =
    all Machine.intel_dunnington Pipeline.all_schemes
    @ all Machine.amd_phenom_ii Pipeline.all_schemes
    @ all (intel 128) narrow @ all (intel 256) narrow @ all (intel 512) wide
  in
  let seen = Hashtbl.create 512 in
  List.filter
    (fun j ->
      let name = job_name j in
      if Hashtbl.mem seen name then false
      else begin
        Hashtbl.replace seen name ();
        true
      end)
    listed

(* Everything the digest covers, printed: the Visa program, each
   block's groups, singles and schedule, the cost estimate with its
   floats in exact hexadecimal, and the number of BAIL15 records. *)
let render (c : Pipeline.compiled) =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  (match c.Pipeline.vector with
  | Some v -> Format.fprintf ppf "%a@." Slp_vm.Visa.pp_program v
  | None -> Format.fprintf ppf "no vector program@.");
  let ids l = String.concat "," (List.map string_of_int l) in
  (match c.Pipeline.plan with
  | None -> Format.fprintf ppf "no plan@."
  | Some plan ->
      List.iter
        (fun (bp : Driver.block_plan) ->
          let g = bp.Driver.grouping in
          Format.fprintf ppf "block %s@.groups %s@.singles %s@."
            bp.Driver.block.Block.label
            (String.concat " " (List.map ids g.Slp_core.Grouping.groups))
            (ids g.Slp_core.Grouping.singles);
          (match bp.Driver.schedule with
          | Some s -> Format.fprintf ppf "%a@." Schedule.pp s
          | None -> Format.fprintf ppf "no schedule@.");
          match bp.Driver.estimate with
          | Some e ->
              Format.fprintf ppf "estimate %h %h %d %d %d %d %d %d@."
                e.Cost.scalar_cost e.Cost.vector_cost e.Cost.vector_ops
                e.Cost.vector_memops e.Cost.scalar_memops_in_packs e.Cost.inserts
                e.Cost.extracts e.Cost.permutes
          | None -> Format.fprintf ppf "no estimate@.")
        plan.Driver.plans);
  Format.fprintf ppf "bail15 %d@." (List.length c.Pipeline.solver_bails);
  Buffer.contents b

let line j =
  let c =
    Pipeline.compile ~verify:true ~unroll:(unroll j) ~scheme:j.scheme
      ~machine:j.machine (Suite.program j.kernel)
  in
  Printf.sprintf "%s %s" (job_name j) (Digest.to_hex (Digest.string (render c)))

let lines () = List.map line (jobs ())
