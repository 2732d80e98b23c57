(* Data layout optimization in action (paper §5.2).

   A damped-stencil kernel reads a coefficient table at stride two —
   every pack of coefficients needs a gather.  The layout stage
   replicates the accessed elements into an interleaved array
   (Figure 14) so the packs become single aligned vector loads.

     dune exec examples/stencil_layout.exe *)

module Pipeline = Slp_pipeline.Pipeline
module Machine = Slp_machine.Machine
module Counters = Slp_vm.Counters

let source =
  {|
f64 u[2100];
f64 unew[2100];
f64 w[4300];
for t = 0 to 64 {
  for i = 1 to 1024 {
    unew[i] = w[2*i] * u[i] + w[2*i+1] * (u[i-1] + u[i+1]);
  }
}
|}

let () =
  let prog = Slp_frontend.Parser.parse ~name:"stencil" source in
  let machine = Machine.intel_dunnington in
  let run scheme =
    let compiled = Pipeline.compile ~scheme ~machine prog in
    let r = Pipeline.execute compiled in
    (compiled, r)
  in
  let cg, rg = run Pipeline.Global in
  let cl, rl = run Pipeline.Global_layout in
  ignore cg;
  Format.printf "Global:        %10.0f cycles, %6d pack loads@."
    (Counters.total_cycles rg.Pipeline.counters)
    rg.Pipeline.counters.Counters.pack_loads;
  Format.printf "Global+Layout: %10.0f cycles, %6d pack loads, %d replica array(s), %.0f setup cycles@."
    (Counters.total_cycles rl.Pipeline.counters)
    rl.Pipeline.counters.Counters.pack_loads cl.Pipeline.replica_count
    (Counters.setup_cycles rl.Pipeline.counters);
  Format.printf "both correct:  %b %b@." rg.Pipeline.correct rl.Pipeline.correct;
  match cl.Pipeline.vector with
  | Some v when cl.Pipeline.replica_count > 0 ->
      Format.printf "@.replication code (runs once):@.";
      List.iter
        (function
          | Slp_vm.Visa.Loop _ as item ->
              Format.printf "%a@."
                (fun ppf it ->
                  Slp_vm.Visa.pp_program ppf
                    { v with Slp_vm.Visa.setup = [ it ]; body = [] })
                item
          | Slp_vm.Visa.Block _ -> ())
        v.Slp_vm.Visa.setup
  | _ -> ()
