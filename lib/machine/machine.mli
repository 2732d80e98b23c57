(** Machine models: SIMD width, instruction cost tables and cache
    hierarchy parameters.

    Concrete models reproduce the two evaluation machines of the paper
    (Table 1: Intel Dunnington Xeon E7450; Table 2: AMD Phenom II X4
    945) plus hypothetical wider-datapath variants for Figure 18.  The
    simulator charges [costs] cycles per instruction plus cache
    latencies from the three-level hierarchy. *)

type cache_level = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  latency : int;  (** Hit latency, cycles. *)
}

type op_costs = {
  scalar_op : int;  (** One scalar ALU/FPU operation. *)
  vector_op : int;  (** One SIMD operation over a full register. *)
  divide : int;  (** A division, scalar or full-register vector. *)
  square_root : int;
  insert : int;  (** Move a scalar into a vector lane (packing). *)
  extract : int;  (** Move a lane out to a scalar (unpacking). *)
  permute : int;  (** In-register shuffle. *)
  broadcast : int;  (** Splat a scalar to all lanes. *)
  load_issue : int;  (** Issue overhead of any load, before cache latency. *)
  store_issue : int;
}

type t = {
  name : string;
  simd_bits : int;
  vector_registers : int;
  cores : int;
  frequency_ghz : float;
  costs : op_costs;
  l1 : cache_level;
  l2 : cache_level;
  l3 : cache_level;
  memory_latency : int;  (** Cycles on full miss. *)
  contention_per_core : int;
      (** Memory-latency inflation per additional active core, in
          hundredths — drives the Figure 21 multicore behaviour. *)
}

val intel_dunnington : t
(** Table 1: 12 cores (2 sockets), Xeon E7450 @ 2.40 GHz, L1d
    32KB/8-way/64B, L2 3MB/12-way per 2 cores, L3 12MB/12-way per
    socket. *)

val amd_phenom_ii : t
(** Table 2: 4 cores, Phenom II X4 945 @ 3.00 GHz, L1d 64KB/2-way/64B,
    L2 512KB/16-way per core, L3 6MB/48-way; costlier
    packing/unpacking than the Intel machine (paper §7.2). *)

val to_string : t -> string
(** Command-line and wire token of the base model: ["amd"] for
    {!amd_phenom_ii}, ["intel"] otherwise. *)

val of_string : string -> t option
(** ["intel"] or ["dunnington"], ["amd"] or ["phenom"]. *)

val with_simd_bits : t -> int -> t
(** Hypothetical wider-datapath variant (Figure 18), same core. *)

val lanes : t -> elem_bytes:int -> int
val describe : t -> (string * string) list
(** Rows of the paper's configuration table. *)

val pp : Format.formatter -> t -> unit
