(** VM execution profiler: cycle and cache attribution.

    The VM engine charges every cycle inside compiled closures, so
    wrapping each closure with a before/after delta attributes the
    whole of [Counters.total_cycles] to the source construct that
    closure came from.  Keys identify constructs: a scalar statement
    id, a superword pack (its statement-id order), setup code, or a
    bare opcode when no origin is known.

    Cache attribution works through the single cache observer: the
    engine points {!set_current} at the stat for the closure about to
    run, and every cache access is binned both to that stat and to the
    array whose address range contains it. *)

type key =
  | Stmt of int  (** scalar statement id *)
  | Pack of int list  (** superword pack: statement ids in lane order *)
  | Setup  (** memory/layout setup code *)
  | Op of string  (** instruction with no recorded origin *)

type stat = {
  mutable centicycles : int;  (** hundredths of a cycle *)
  mutable count : int;  (** closure executions *)
  level_hits : int array;  (** cache hits by level, L1 first *)
  mutable memory_accesses : int;
}

type t

val create : unit -> t

val stat : t -> key -> stat
(** Find or create the stat for [key].  The engine hoists this lookup
    out of the hot closure. *)

val add : stat -> centicycles:int -> unit
(** Record one execution of the keyed closure costing [centicycles]. *)

val set_current : t -> stat option -> unit
(** Point cache attribution at [stat] (or detach it). *)

val note_access : t -> addr:int -> level:int -> unit
(** Cache-observer callback: count one access resolved at [level]
    (0-based cache level, or beyond the last level for memory)
    against the current stat and the array containing [addr]. *)

val register_array : t -> name:string -> base:int -> bytes:int -> unit
(** Declare an array's address range for per-array cache binning. *)

val total_cycles : t -> float
(** Sum of attributed cycles over all keys.  When profiling a
    single-core run this equals [Counters.total_cycles] exactly. *)

val top : ?n:int -> t -> (key * stat) list
(** Hottest keys by attributed cycles, descending, keys of equal cost
    in first-seen order; default top 10. *)

val arrays : t -> (string * stat) list
(** Per-array cache stats, in registration order. *)

val report : ?n:int -> Format.formatter -> t -> unit
(** Human-readable hot-statement and per-array tables. *)

val to_json : t -> Json.t
