(** Dynamic soundness oracle for the static dependence analysis.

    Replays a program's memory accesses (addresses only — control flow
    and subscripts are data-independent) and verifies post-hoc that

    - no two statements of one block instance touch the same location
      in a conflicting way unless {!Depend.block_dep_pairs} reports an
      edge between them, and
    - when the verdict passed in is [Parallel]: no array address is
      written under one value of the partitioned index and touched
      under another; recognised reduction scalars are touched only by
      their own update statements; every other written scalar is
      written before read within each partition value.

    Zero violations over a run means the static verdicts were sound
    for that input shape. *)

open Slp_ir

type report = {
  events : int;  (** accesses replayed *)
  violations : string list;  (** human-readable, empty when sound *)
}

val check : verdict:Depend.verdict -> Program.t -> report
(** Runs both checks over a full sequential replay.  [verdict] is the
    program's chunk-independence verdict, from
    [Slp_vm.Parcheck.analyze (Slp_vm.Visa.of_program prog)]: the
    verdict the engine acts on (this library cannot see Visa).  The
    program must be valid ([Program.validate]); outer loop bounds are
    then compile-time constants, so the replay never needs runtime
    data. *)
