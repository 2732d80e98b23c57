(** Dynamic execution counters.

    Figure 17 of the paper separates "dynamic instructions executed
    (excluding the packing/unpacking instructions)" from
    "packing/unpacking overheads"; the counters keep the two
    populations distinct.  Packing/unpacking covers inserts, extracts,
    permutes, broadcasts and the scalar memory operations issued inside
    gathers and unpacks. *)

type t = {
  mutable scalar_ops : int;
  mutable vector_ops : int;
  mutable scalar_loads : int;  (** Loads issued by scalar statements. *)
  mutable scalar_stores : int;
  mutable vector_loads : int;
  mutable vector_stores : int;
  mutable pack_loads : int;  (** Element loads inside a gather/pack. *)
  mutable pack_stores : int;  (** Element stores inside an unpack. *)
  mutable inserts : int;
  mutable extracts : int;
  mutable permutes : int;
  mutable broadcasts : int;
  mutable centicycles : int;  (** Simulated time, in hundredths of a cycle. *)
  mutable setup_centicycles : int;
      (** One-time cost of materialising replicated layouts. *)
}

val create : unit -> t
val copy : t -> t
val merge_into : into:t -> t -> unit
(** Accumulate instruction counts and centicycles into [into]. *)

val equal : t -> t -> bool
(** Every count and both centicycle fields equal — the differential
    check between the compiled engine and the reference
    interpreters. *)

val dynamic_instructions : t -> int
(** All executed instructions except packing/unpacking. *)

val packing_instructions : t -> int
(** Inserts + extracts + permutes + broadcasts + pack memory ops. *)

val total_instructions : t -> int
val cycles : t -> float
(** [centicycles] in cycles: [float_of_int centicycles /. 100.0],
    correctly rounded, so a whole number of cycles converts exactly.
    This and the two below are the only conversions. *)

val setup_cycles : t -> float
val total_cycles : t -> float
(** [centicycles + setup_centicycles], in cycles. *)

val pp : Format.formatter -> t -> unit
