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
  mutable cycles : float;
  mutable setup_cycles : float;
      (** One-time cost of materialising replicated layouts. *)
}

val create : unit -> t
val copy : t -> t
val add : t -> t -> t
(** Component-wise sum (fresh record). *)

val merge_into : into:t -> t -> unit
(** Accumulate instruction counts and cycles into [into]. *)

val equal : t -> t -> bool
(** All instruction counts equal and [cycles] and [setup_cycles]
    bit-identical (compared by [Int64.bits_of_float]) — the
    differential check between the compiled engine and the reference
    interpreters. *)

val dynamic_instructions : t -> int
(** All executed instructions except packing/unpacking. *)

val packing_instructions : t -> int
(** Inserts + extracts + permutes + broadcasts + pack memory ops. *)

val total_instructions : t -> int
val total_cycles : t -> float
val pp : Format.formatter -> t -> unit
