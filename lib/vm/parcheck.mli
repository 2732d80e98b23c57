(** Chunk-independence analysis for domain-parallel execution.

    The multicore model runs the partitioned chunks of the first
    top-level loop sequentially on shared memory; {!Engine} may run
    them on concurrent OCaml domains only when no chunk can observe
    another chunk's writes.  The analysis is dependence-based (see
    {!Depend}): array chunk independence is proved by the
    cross-instance solver (no loop-carried conflict on the partitioned
    index), recognised scalar reductions ([s = s ⊕ e],
    ⊕ ∈ {+, *, min, max}) run on per-core partial accumulators merged
    in core order, and remaining written scalars must be privatizable
    (written before read within each iteration).  [Serial] carries a
    stable reason code and never breaks anything — the engine keeps
    its sequential legs.

    There is one analysis for every program the engine runs: a scalar
    program is analysed as its {!Visa.of_program} image.  The engine,
    both reference interpreters, the verifier's DEP04 check and the
    dynamic oracle ([Dtrace]) all read this verdict. *)

open Slp_ir
open Slp_depend

type verdict = Depend.verdict =
  | Serial of string
      (** reason code: ["par-shape"], ["par-array-dep:<arr>"],
          ["par-scalar:<name>"] *)
  | Parallel of { reductions : (string * Types.binop) list }

val analyze : Visa.program -> verdict
(** [setup] is ignored: it always runs before the parallel leg.
    Reductions are recognised only from scalar [Sstmt] update chains;
    any other instruction touching the scalar disqualifies it. *)
