(** Structured VM traps.

    Out-of-bounds accesses, rank mismatches, unknown arrays and
    never-stored spill slots used to surface as bare
    [Invalid_argument] strings; a {!Trap} carries the array name, the
    offending index and bound, and — when the executing site knows it —
    the originating statement id, so the resilient pipeline can emit a
    precise bailout record instead of a raw [Failure] string. *)

type kind =
  | Out_of_bounds of { index : int; bound : int }
  | Rank_mismatch
  | Unknown_array
  | Unset_spill of { slot : int }
  | Injected_fault  (** Raised only by the fault-injection harness. *)

type info = { kind : kind; array : string; stmt : int option }

exception Trap of info

val to_string : info -> string
val pp : Format.formatter -> info -> unit

val oob : ?stmt:int -> array:string -> index:int -> bound:int -> unit -> 'a
val rank_mismatch : ?stmt:int -> array:string -> unit -> 'a
val unknown_array : ?stmt:int -> array:string -> unit -> 'a
val unset_spill : ?stmt:int -> slot:int -> unit -> 'a

(** {2 Seeded fault injection}

    The harness arms a one-shot fault; the [after]-th subsequent
    memory access raises and the fault disarms itself, so the scalar
    fallback re-execution runs clean.  Timed runs tick in
    {!Cache.access}; values-only runs, which skip the cache, tick at
    the same point of the same access.  [Memory_fault] raises
    {!Trap} with [Injected_fault]; [Cache_fault] raises
    {!Slp_util.Slp_error.Error} with code [Injected]. *)

type fault = Memory_fault | Cache_fault

val fault_enabled : bool ref
(** Cheap guard read on every memory access before {!fault_tick};
    treat as read-only and use {!with_fault}. *)

val fault_tick : unit -> unit
val with_fault : fault:fault -> after:int -> (unit -> 'a) -> 'a
(** Arm, run, always disarm (even on exception). *)
