(** Structured compile-path errors: every bailout carries the pass it
    came from, a stable reason code ([BAIL01]..[BAIL15]), an optional
    source span, and whether the pipeline can recover by degrading the
    kernel to scalar code.

    The resilient pipeline driver ({!Slp_pipeline.Pipeline}) catches
    {!Error} (and classifies foreign exceptions into one) and falls
    back to verified scalar codegen instead of aborting the whole
    compile — the paper's framework always has the original scalar
    statements as a legal answer. *)

type pass =
  | Frontend
  | Analysis
  | Transform
  | Grouping
  | Scheduling
  | Layout
  | Lowering
  | Regalloc
  | Verification
  | Vm
  | Pipeline

val pass_name : pass -> string

(** Stable reason codes.  The wire name is [BAILnn-mnemonic]; see
    {!catalogue} for descriptions (also reproduced in DESIGN.md). *)
type code =
  | Parse_error  (** BAIL01 *)
  | Lex_error  (** BAIL02 *)
  | Validation  (** BAIL03 *)
  | Unsupported  (** BAIL04 *)
  | Grouping_failed  (** BAIL05 *)
  | Schedule_failed  (** BAIL06 *)
  | Layout_failed  (** BAIL07 *)
  | Lowering_failed  (** BAIL08 *)
  | Regalloc_failed  (** BAIL09 *)
  | Verify_rejected  (** BAIL10 *)
  | Fuel_exhausted  (** BAIL11 *)
  | Vm_trap  (** BAIL12 *)
  | Internal  (** BAIL13 *)
  | Injected  (** BAIL14 *)
  | Optimal_bailed  (** BAIL15 *)
  | Deadline_exceeded  (** BAIL16 *)

val code_id : code -> string
(** ["BAIL05"]. *)

val code_name : code -> string
(** ["BAIL05-group"]. *)

val catalogue : (code * string) list
(** Every code with its one-line description, in BAIL order. *)

type span = { line : int; col : int }

type t = {
  code : code;
  pass : pass;
  span : span option;
  recoverable : bool;
  message : string;
}

exception Error of t

val make : ?span:span -> ?recoverable:bool -> pass:pass -> code -> string -> t
(** [recoverable] defaults to [true] — almost every compile failure
    leaves scalar fallback available. *)

val fail :
  ?span:span ->
  ?recoverable:bool ->
  pass:pass ->
  code ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Format, build, raise. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object (no trailing newline); strings are escaped. *)

val json_escape : string -> string

(** Per-job wall-clock deadlines, enforced cooperatively: the pipeline
    calls {!check} at stage boundaries and {!Fuel.tick} consults the
    clock periodically, so a runaway pass surfaces as a structured
    [BAIL16] ({!code.Deadline_exceeded}) instead of wedging its caller.
    The clock is injected (pass {!Slp_obs.Clock.now}, or a counter in
    tests), keeping this module dependency-free and the enforcement
    deterministic under a frozen clock. *)
module Deadline : sig
  type error = t
  type t

  val never : t
  (** Never expires; checks are almost free. *)

  val create : clock:(unit -> float) -> seconds:float -> t
  (** Expires [seconds] after creation on [clock]'s timeline.
      [seconds = infinity] returns {!never}. *)

  val expired : t -> bool
  val remaining : t -> float
  (** Seconds until expiry; [infinity] for {!never}, negative when
      already breached. *)

  val check : ?pass:pass -> t -> unit
  (** Raise {!Error} with code [Deadline_exceeded] once expired
      ([pass] defaults to [Pipeline]). *)
end

(** Per-pass step budgets: a cheap guard against grouping-graph blowup
    and scheduler loops.  [tick] raises {!Error} with
    {!code.Fuel_exhausted} once the budget runs dry, and — when a
    deadline rides along — checks the wall clock every few hundred
    ticks, raising [Deadline_exceeded] from inside long passes. *)
module Fuel : sig
  type error = t
  type t

  val create : ?deadline:Deadline.t -> pass:pass -> budget:int -> unit -> t
  val tick : t -> unit
  val remaining : t -> int
end
