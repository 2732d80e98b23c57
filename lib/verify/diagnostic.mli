(** Structured verifier diagnostics.

    Every finding carries a stable rule id (the catalogue lives in
    DESIGN.md and is asserted by the mutation tests), a severity, the
    pipeline stage whose output was being checked, the offending
    statement or instruction rendered as text, and a human message. *)

type severity = Error | Warning

type stage =
  | Prepared_ir  (** After constant folding + unrolling. *)
  | Grouping  (** Pack legality of a block plan. *)
  | Scheduling  (** Order legality of a block plan. *)
  | Layout  (** The rewritten program of [Global_layout]. *)
  | Lowering  (** Visa bytecode before register allocation. *)
  | Regalloc  (** Visa bytecode after register allocation. *)

type t = {
  rule : string;  (** Stable id, e.g. ["VISA03-selector"]. *)
  severity : severity;
  stage : stage;
  where : string;  (** Offending stmt/instr, rendered; may be empty. *)
  message : string;
}

val error :
  rule:string -> stage:stage -> where:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val warning :
  rule:string -> stage:stage -> where:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val is_error : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
