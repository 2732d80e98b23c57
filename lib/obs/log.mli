(** Leveled JSON-line structured logging for the compile service.

    Every event is one JSON object per line — [ts], [level], [event]
    plus caller-supplied fields — appended to a bounded in-memory ring
    (readable by the [stats] endpoint and tests) and, when configured,
    a file sink ([slpd --log FILE]).  Timestamps come from the
    injectable {!Clock}, so deterministic tests get deterministic
    logs.  Filtering below the threshold is a single atomic load. *)

type t

type level = Debug | Info | Warn | Error | Off
(** [Off] is a threshold only — events cannot be logged at [Off]. *)

val level_of_string : string -> level option

val create :
  ?level:level -> ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** Ring of [capacity] entries (default 256), threshold [level]
    (default [Info]), timestamps from [clock] (default {!Clock.now}). *)

val set_level : t -> level -> unit

val with_file : t -> string -> unit
(** Open (truncate) [path] as the line sink; replaces any prior sink.
    A write error later closes the sink instead of raising: logging
    carries on in the ring, and {!stats_json} reports the error. *)

val close : t -> unit
(** Close the file sink, if any.  The ring stays usable. *)

val event : t -> level -> string -> (string * Json.t) list -> unit
val debug : t -> string -> (string * Json.t) list -> unit
val info : t -> string -> (string * Json.t) list -> unit
val warn : t -> string -> (string * Json.t) list -> unit
val error : t -> string -> (string * Json.t) list -> unit

type entry = { ts : float; level : level; event : string; line : string }

val recent : ?max:int -> t -> entry list
(** Oldest-first slice of the ring's most recent entries. *)

val counts : t -> (string * int) list
(** Events recorded per level name, including ones the ring evicted. *)

val total : t -> int

val stats_json : t -> Json.t
(** {v {"level":..,"total":..,"counts":{..},"sink_error":..} v} for
    the stats op; [sink_error] is [null] unless a write error closed
    the file sink. *)
