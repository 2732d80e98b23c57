(** Plan digests ([experiments --plan-digests FILE]): one MD5 per
    distinct (kernel, scheme, machine, width) compile of the two
    benchmark workloads, for showing that a change to the compiler
    leaves every plan and program bit-identical. *)

type job = {
  kernel : Slp_benchmarks.Suite.t;
  scheme : Slp_pipeline.Pipeline.scheme;
  machine : Slp_machine.Machine.t;
}

val jobs : unit -> job list
(** The 320 distinct jobs: the suite at 128 bits on both machines
    under every scheme, and Figure 18's widened Intel model at 128 and
    256 bits (every vectorizing scheme) and 512 bits (Native, SLP,
    Global).  Unroll is the kernel's, scaled by [simd_bits / 128]. *)

val job_name : job -> string
(** [kernel/scheme/machine/width], e.g. [lbm/Optimal/intel/256]. *)

val render : Slp_pipeline.Pipeline.compiled -> string
(** Everything a digest covers, printed: the Visa program, each
    block's groups, singles and schedule, the cost estimate with its
    floats in exact hexadecimal, and the number of BAIL15 records. *)

val lines : unit -> string list
(** One ["NAME HEX"] line per job, in {!jobs} order.  The digest
    covers the printed Visa program, each block's groups, singles and
    schedule, the cost estimate (floats in exact hex) and the count of
    BAIL15 solver bails. *)
