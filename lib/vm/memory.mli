(** The simulated address space: arrays and scalar spill slots.

    Arrays are flattened row-major at 64-byte-aligned bases; scalars
    occupy a dedicated segment whose slot assignment the data layout
    optimizer may override (paper §5.1 — adjacent slots let a scalar
    superword move with one vector memory operation).  Addresses are
    bytes; values are doubles regardless of declared element type
    (types govern widths and lane counts, not arithmetic).

    All value storage is unboxed [floatarray]: array backing stores,
    the scalar segment, and the vector spill arena, so the execution
    engine's hot loops touch flat float memory with no per-element
    boxing and no hashing. *)

open Slp_ir

type t

val create : ?scalar_layout:(string * int) list -> env:Env.t -> unit -> t
(** [scalar_layout] assigns byte offsets within the scalar segment;
    unlisted scalars are appended after the listed ones.  Offsets must
    be distinct multiples of 8.  The scalar segment is sized exactly
    from the declared scalars plus the explicit layout (no fixed
    "generous" area), and creation raises [Invalid_argument] if any
    scalar address would overflow into the spill segment. *)

val layout : ?scalar_layout:(string * int) list -> env:Env.t -> unit -> t
(** {!create}'s addresses without its values: the same array bases,
    dimensions and element sizes, scalar and spill addresses, but no
    array has a backing store, so nothing is allocated or zero-filled
    per element.  For runs that compute addresses only, such as
    timing-only runs; {!load} and {!store} on it trap. *)

val init_arrays : t -> seed:int -> unit
(** Fill every array with deterministic pseudo-random values in
    [0, 1). *)

val scalar_slot : t -> string -> int
(** Integer slot of a scalar value in {!scalar_values}.  Scalars
    declared in the environment are assigned slots at creation (in
    sorted name order); unknown names are registered on first use.
    The compiled execution engine resolves every name to a slot once,
    then reads and writes the flat backing store directly. *)

val scalar_values : t -> floatarray
(** The live scalar backing store, indexed by {!scalar_slot}.  The
    array may be replaced (grown) by a later [scalar_slot]
    registration of a new name, so register every name before
    capturing it. *)

val load : t -> string -> int -> float
(** [load t array flat_index]; raises {!Trap.Trap} out of bounds. *)

val store : t -> string -> int -> float -> unit
val scalar : t -> string -> float
(** Unset scalars read 0 (conservatively-initialised registers). *)

val set_scalar : t -> string -> float -> unit
val array_base : t -> string -> int
val scalar_addr : t -> string -> int
val elem_bytes : t -> string -> int
val flat_index : t -> string -> int list -> int
(** Row-major flattening with per-dimension bounds checks; raises
    {!Trap.Trap} on a rank mismatch or an out-of-range index. *)

val array_values : t -> string -> floatarray
(** The live backing store (not a copy). *)

val dims : t -> string -> int list

val spill_addr : t -> slot:int -> int
(** Byte address of a vector spill slot (64-byte aligned segment after
    the scalar slots; slots are 64 bytes). *)

val reserve_spills : t -> slots:int -> max_lanes:int -> unit
(** Preallocate the spill arena for [slots] slots of up to [max_lanes]
    lanes each, so no growth happens on the execution hot path.  The
    register allocator's static slot count and the program's widest
    register give the exact sizing. *)

val spill_store : t -> slot:int -> float array -> unit
val spill_load : t -> slot:int -> float array
(** Raises {!Trap.Trap} when the slot was never stored. *)

val same_contents : t -> t -> bool
(** [same_contents reference candidate]: every array of [reference]
    exists in [candidate] with equal length and equal values within
    1e-9 (identical NaNs/infinities count as equal) — used to check
    that vectorized execution computes exactly what scalar execution
    does.  Only [reference]'s arrays are compared: arrays that exist
    only in [candidate], such as the replicas a data layout adds, are
    ignored.  Pass the scalar run's memory first. *)

val same_scalars : names:string list -> t -> t -> bool
(** The scalars [names] read the same in both memories, with
    {!same_contents}' tolerance; a scalar a memory never set reads 0
    (as {!scalar} does). *)

val equal : t -> t -> bool
(** The same arrays and the same scalars, bit for bit (floats compared
    by [Int64.bits_of_float]) — the memory half of the
    engine-vs-interpreter differential.  Scalars compare by name, and
    a scalar only one memory has reads 0 in the other (as {!scalar}
    does).  Spills are not compared. *)
