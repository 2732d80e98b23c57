(** The 16-kernel benchmark suite reproducing Table 3.

    The paper evaluates all C/C++ floating-point SPEC2006 benchmarks
    plus six NAS kernels.  Those sources are unavailable here, so each
    entry is a kernel in the repository's input language mimicking its
    benchmark's dominant data-access and compute pattern (see
    DESIGN.md's substitution table): stencil sweeps for
    cactusADM/wrf/mg, interleaved complex arithmetic for milc,
    simplex-style row updates for soplex, lattice streaming for lbm,
    shading arithmetic for povray, pairwise-force webs for
    gromacs/namd, element assembly for calculix/dealII, butterflies
    for ft, banded solves for bt/sp, and sparse-style reductions for
    cg; ua mixes refinement levels.

    Kernels are deterministic and sized so the whole evaluation runs
    in seconds under the simulator. *)

type suite = Spec2006 | Nas

type t = {
  name : string;
  suite : suite;
  description : string;  (** The Table 3 wording. *)
  source : string;  (** Kernel-language program text. *)
  unroll : int;  (** Unroll factor filling the 128-bit datapath. *)
  multicore : bool;  (** Outermost loop is a parallel spatial loop. *)
}

val all : t list
(** All 16, SPEC2006 first, each name matching the paper's Table 3. *)

val nas : t list
(** The six NAS kernels used in the multicore experiment (Figure 21). *)

val find : string -> t
(** Lookup by name; raises [Not_found]. *)

val unroll_at : t -> simd_bits:int -> int
(** The unroll factor filling a [simd_bits]-wide datapath: [unroll]
    scaled by [simd_bits / 128], at least 1. *)

val program : t -> Slp_ir.Program.t
(** Parse (memoised per call — kernels are small). *)

val suite_name : suite -> string
