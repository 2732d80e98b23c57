(* Quickstart: compile a small kernel with the holistic SLP framework
   and watch it vectorize.

     dune exec examples/quickstart.exe *)

module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine

let source =
  {|
f64 X[512];
f64 Y[512];
f64 Z[512];
for i = 0 to 512 {
  Z[i] = 2.0 * X[i] + Y[i];
}
|}

let () =
  (* 1. Parse the kernel language into the IR. *)
  let prog = Slp_frontend.Parser.parse ~name:"axpy" source in
  Format.printf "-- input --@.%a@.@." Slp_ir.Program.pp prog;

  (* 2. Compile with the paper's Global scheme on the Intel model.
     Pre-processing unrolls the loop to fill the 128-bit datapath. *)
  let machine = Machine.intel_dunnington in
  let compiled = Pipeline.compile ~scheme:Pipeline.Global ~machine prog in

  (* 3. Inspect what the optimizer decided. *)
  (match compiled.Pipeline.plan with
  | Some plan ->
      List.iter
        (fun (bp : Slp_core.Driver.block_plan) ->
          match bp.Slp_core.Driver.schedule with
          | Some s ->
              Format.printf "-- schedule for %s --@.%a@.@."
                bp.Slp_core.Driver.block.Slp_ir.Block.label Slp_core.Schedule.pp s
          | None -> ())
        plan.Slp_core.Driver.plans
  | None -> ());

  (* 4. Show the generated vector code. *)
  (match compiled.Pipeline.vector with
  | Some v -> Format.printf "-- vector code --@.%a@.@." Slp_vm.Visa.pp_program v
  | None -> ());

  (* 5. Execute on the simulator: the result must match scalar
     execution bit for bit, and should be faster. *)
  let r = Pipeline.execute compiled in
  Format.printf "-- execution --@.%a@." Slp_vm.Counters.pp r.Pipeline.counters;
  Format.printf "semantics preserved: %b@." r.Pipeline.correct;
  let scalar =
    Pipeline.execute ~check:false
      { compiled with Pipeline.scheme = Pipeline.Scalar; vector = None }
  in
  Format.printf "speedup over scalar: %.2fx@."
    (Slp_vm.Counters.total_cycles scalar.Pipeline.counters
    /. Slp_vm.Counters.total_cycles r.Pipeline.counters)
