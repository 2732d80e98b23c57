(* Adopting the framework on your own hardware model.

   Defines a hypothetical in-order embedded core with a narrow cache
   and expensive unaligned access, then sweeps an image kernel across
   SIMD widths to pick the best configuration — the kind of
   design-space exploration the simulator substrate enables.

     dune exec examples/custom_machine.exe *)

module M = Slp_machine.Machine
module Pipeline = Slp_pipeline.Pipeline
module Counters = Slp_vm.Counters

(* An embedded-flavoured machine: slow memory, small L1, cheap ALU,
   pricey packing. *)
let embedded =
  {
    M.name = "Embedded in-order core";
    simd_bits = 128;
    vector_registers = 8;
    cores = 2;
    frequency_ghz = 1.0;
    costs =
      {
        M.scalar_op = 1;
        vector_op = 1;
        divide = 24;
        square_root = 32;
        insert = 4;
        extract = 4;
        permute = 4;
        broadcast = 4;
        load_issue = 2;
        store_issue = 2;
      };
    l1 = { M.size_bytes = 8 * 1024; ways = 2; line_bytes = 32; latency = 2 };
    l2 = { M.size_bytes = 128 * 1024; ways = 4; line_bytes = 32; latency = 12 };
    l3 = { M.size_bytes = 512 * 1024; ways = 8; line_bytes = 32; latency = 30 };
    memory_latency = 120;
    contention_per_core = 10;
  }

let source =
  {|
f32 src[4096];
f32 dst[4096];
f32 gain[8600];
for frame = 0 to 16 {
  for i = 0 to 1024 {
    dst[4*i]   = gain[8*i]   * src[4*i];
    dst[4*i+1] = gain[8*i+2] * src[4*i+1];
    dst[4*i+2] = gain[8*i+4] * src[4*i+2];
    dst[4*i+3] = gain[8*i+6] * src[4*i+3];
  }
}
|}

let () =
  let prog = Slp_frontend.Parser.parse ~name:"agc" source in
  Format.printf
    "Automatic gain control on '%s' — scheme and width exploration:@.@."
    embedded.M.name;
  Format.printf "%10s %16s %14s %10s@." "width" "scheme" "cycles" "correct";
  List.iter
    (fun bits ->
      let machine = M.with_simd_bits embedded bits in
      List.iter
        (fun scheme ->
          let compiled = Pipeline.compile ~unroll:(bits / 128) ~scheme ~machine prog in
          let r = Pipeline.execute compiled in
          Format.printf "%7d-bit %16s %14.0f %10b@." bits
            (Pipeline.scheme_name scheme)
            (Counters.total_cycles r.Pipeline.counters)
            r.Pipeline.correct)
        [ Pipeline.Scalar; Pipeline.Global; Pipeline.Global_layout ])
    [ 128; 256 ];
  Format.printf
    "@.The strided gain table is the layout stage's target: Global+Layout@.\
     replicates it once and loads it with aligned vector loads thereafter.@."
