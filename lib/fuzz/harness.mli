(** The fuzzing campaign driver: generate, cross-check, shrink.

    A campaign is fully determined by its seed: case [i] draws from
    the [i]-th split of a master {!Slp_util.Prng.t}, so any failing
    case is replayable from [(seed, index)] alone — independently of
    how many cases ran before or after it. *)

open Slp_ir
module Pipeline = Slp_pipeline.Pipeline

type config = {
  seed : int;
  count : int;
  gen_options : Gen.options;
  schemes : Pipeline.scheme list;
}
(** Every case runs {!Oracle.run} on both evaluation machines, and a
    failing one is shrunk within 400 oracle runs. *)

val default_config : config
(** Seed 42, 300 cases, all six schemes. *)

type failure_report = {
  case_index : int;
  seed : int;
  program : Program.t;  (** As generated. *)
  shrunk : Program.t;  (** Minimal reproducer (still failing). *)
  failures : Oracle.failure list;  (** Of the original program. *)
}

type stats = {
  cases : int;
  reports : failure_report list;
  drift_total : int;
      (** Machine-level drift records with at least two measured schemes. *)
  drift_agreements : int;
      (** Decided records where the cost model's cheapest vectorizing
          scheme is also the measured-fastest one (the first in scheme
          order among equals). *)
  drift_ties : int;
      (** Records where both the predicted and the measured minimum are
          shared by two or more schemes: they decide nothing. *)
  drift_disagreements : int;  (** The remaining records. *)
}

type verdict = Agree | Tie | Disagree

val agreement : Oracle.drift -> verdict option
(** How one machine-record's predicted and measured orderings compare,
    over the schemes present on both sides ([None] below two): [Tie]
    when both the predicted and the measured minimum are shared by two
    or more schemes, otherwise [Agree] when the first scheme (in list
    order) reaching each minimum is the same, else [Disagree]. *)

val case_program : config -> int -> Program.t
(** The program of case [index] under this config — replay without
    running the campaign. *)

val check : config -> index:int -> Program.t -> Oracle.outcome * failure_report option
(** One case: the oracle's outcome over the config's schemes and,
    when it fails, its report, shrunk with the oracle itself as the
    predicate.  [index] names the case in the report. *)

val run : ?on_case:(int -> Program.t -> unit) -> config -> stats
(** Runs the campaign, {!check}ing every case. *)

val pp_report : Format.formatter -> failure_report -> unit
(** Failure list, replay coordinates, and the shrunken kernel as
    re-parseable source. *)
