(* Workload inputs, generated from the seed alone.

   A job is one (kernel, scheme, machine) compile at a datapath width.
   The seed decides job order, the data seed, the hot set of the
   service workload and its request stream; the program under test
   only ever sees the generated specs. *)

module P = Slp_pipeline.Pipeline
module M = Slp_machine.Machine
module Suite = Slp_benchmarks.Suite

type job = {
  kernel : Suite.t;
  scheme : P.scheme;
  machine : M.t;
  unroll : int;  (** The kernel's unroll scaled to the width, as [Runner.measure] does. *)
}

let machine_tag (m : M.t) = if m.M.name = M.amd_phenom_ii.M.name then "amd" else "intel"

let job_name j =
  Printf.sprintf "%s/%s/%s/%d" j.kernel.Suite.name (P.scheme_name j.scheme) (machine_tag j.machine)
    j.machine.M.simd_bits

let make ~machine ~scheme kernel =
  { kernel; scheme; machine; unroll = max 1 (kernel.Suite.unroll * machine.M.simd_bits / 128) }

let machines = [ M.intel_dunnington; M.amd_phenom_ii ]

(* Every kernel x 6 schemes x {intel, amd} at 128 bits: 192 jobs. *)
let suite_jobs () =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun machine -> List.map (fun scheme -> make ~machine ~scheme kernel) P.all_schemes)
        machines)
    Suite.all

(* Figure 18's widened Intel model.  Global+Layout and Optimal stop at
   256 bits: at 512 each alone outweighs the rest of the pass. *)
let wide_jobs () =
  let narrow = P.[ Native; Slp; Global; Global_layout; Optimal ] in
  let wide = P.[ Native; Slp; Global ] in
  List.concat_map
    (fun (bits, schemes) ->
      let machine = M.with_simd_bits M.intel_dunnington bits in
      List.concat_map
        (fun kernel -> List.map (fun scheme -> make ~machine ~scheme kernel) schemes)
        Suite.all)
    [ (128, narrow); (256, narrow); (512, wide) ]

let rng ~seed salt = Random.State.make [| seed; salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let data_seed ~seed = 1 + Random.State.int (rng ~seed 1) 1_000_000

(* The job order of pass [pass]: a fresh permutation per pass. *)
let pass_order ~seed ~pass jobs = shuffle (rng ~seed (100 + pass)) jobs

(* -- the service workload ----------------------------------------- *)

let hot_size = 48
let hits_per_miss = 4

(* 48 of the 192 suite triples, balanced so every seed's hot set has
   the same make-up: each kernel appears 3 times and each (scheme,
   machine) column 4 times.  Kernel r takes columns 3r, 3r+1, 3r+2
   (mod 12) of a base design; the seed permutes kernels and columns. *)
let hot_set ~seed =
  let st = rng ~seed 2 in
  let kernels = Array.of_list (shuffle st Suite.all) in
  let columns =
    Array.of_list
      (shuffle st (List.concat_map (fun m -> List.map (fun s -> (s, m)) P.all_schemes) machines))
  in
  let ncol = Array.length columns in
  let per_kernel = hot_size / Array.length kernels in
  let picked =
    List.concat
      (List.init (Array.length kernels) (fun r ->
           List.init per_kernel (fun k ->
               let scheme, machine = columns.(((per_kernel * r) + k) mod ncol) in
               make ~machine ~scheme kernels.(r))))
  in
  shuffle st picked

type request = Hit of int | Miss of int * int  (** hot index; hot index and data seed *)

(* Round [index]: every hot triple is hit [hits_per_miss] times and
   missed once with a fresh data seed, as groups of four hits then a
   miss in a seeded order.  Cold seeds are numbered from [base_seed]
   by round, so no cold key repeats across rounds. *)
let round ~seed ~index ~base_seed =
  let st = rng ~seed (1000 + index) in
  let n = hot_size in
  let hits = Array.of_list (shuffle st (List.concat (List.init hits_per_miss (fun _ -> List.init n Fun.id)))) in
  let misses = shuffle st (List.init n Fun.id) in
  List.concat
    (List.mapi
       (fun g h ->
         let cold = base_seed + 1 + (index * n) + g in
         List.init hits_per_miss (fun k -> Hit hits.((g * hits_per_miss) + k)) @ [ Miss (h, cold) ])
       misses)
