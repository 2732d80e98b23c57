(** Automatic test-case reduction.

    Given a kernel on which some predicate holds (typically "the
    differential oracle reports a failure"), the shrinker greedily
    searches for a smaller kernel on which it still holds: it deletes
    statements, deletes whole loop levels (substituting the removed
    index by its lower bound), narrows loop bounds toward a single
    iteration, replaces statement right-hand sides by their subtrees,
    and finally drops unused declarations.  Each pass restarts from
    the first successful reduction, so the result is a local minimum:
    no single remaining deletion reproduces the failure.

    Candidates are always normalised (adjacent blocks merged,
    statements renumbered, empty blocks and loops dropped) so every
    intermediate program is valid and prints as re-parseable source. *)

open Slp_ir

val run :
  ?max_checks:int -> still_fails:(Program.t -> bool) -> Program.t -> Program.t
(** [run ~still_fails p] requires [still_fails p = true] and returns a
    normalised program on which [still_fails] still holds.
    [max_checks] (default 1000) bounds predicate evaluations; on
    exhaustion the best program found so far is returned. *)
