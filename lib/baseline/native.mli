(** A deliberately conservative auto-vectorizer standing in for the
    "Native" compiler bars of the paper's Figure 16.

    Packs statement runs only when every operand position is either a
    contiguous aligned-stride array pack, an identical scalar
    (broadcast), or a constant — the classic contiguous-only loop
    vectorizer behaviour.  No reuse search, no permutations. *)

open Slp_ir

val group :
  dep_pairs:(int * int) list ->
  env:Env.t ->
  config:Slp_core.Config.t ->
  Block.t ->
  Slp_core.Grouping.result
(** The packs found under the statement dependence pairs [dep_pairs]
    (the pipeline passes a syntactic {!Slp_core.Driver.site}'s).  The
    pipeline schedules them with {!Larsen.schedule} under
    {!Slp_core.Driver.gate}. *)
