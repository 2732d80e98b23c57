(** Internal-consistency checks over the dependence analyzer's output
    (rules DEP01–DEP05, catalogued in DESIGN.md).

    The graph of {!Slp_depend.Depend.of_program} is self-describing —
    edges carry program positions, distance/direction vectors, and
    conservativeness reasons — so most invariants can be validated
    against the program without re-running the solver:

    - [DEP01-li-order]: loop-independent edges run forward in program
      order.
    - [DEP02-distance]: carried edges have distance in [1, trip - 1]
      (when both are known), direction [<] on the carrier, and [=] on
      every loop outside it.
    - [DEP03-reduction]: reported reductions use an associative
      operator and each update statement is a self-update of the
      scalar with that operator.
    - [DEP04-parallel]: a [Parallel] verdict of
      {!Slp_vm.Parcheck.analyze} on the program's Visa image coexists
      with no edge carried on the partition loop.
    - [DEP05-reason]: inexact edges carry a catalogued reason code;
      exact edges carry none. *)

val check :
  ?stage:Diagnostic.stage -> Slp_ir.Program.t -> Diagnostic.t list
(** Analyze [prog] and validate the resulting dependence graph:
    {!check_graph} over {!Slp_depend.Depend.of_program} and the
    verdict of {!Slp_vm.Parcheck.analyze} on [prog]'s Visa image.
    [stage] defaults to [Prepared_ir] (the pipeline checks the
    unrolled, folded reference program). *)

val check_graph :
  ?stage:Diagnostic.stage ->
  verdict:Slp_depend.Depend.verdict ->
  Slp_ir.Program.t ->
  Slp_depend.Depend.graph ->
  Diagnostic.t list
(** The rules alone, over a given [graph] of [prog] and the multicore
    [verdict] DEP04 holds it to.  An edge's text is formatted only for
    a diagnostic. *)
