(** Per-domain trace buffers merged into one Chrome timeline.

    The daemon's reactor and worker domains each record spans into
    their own {!Trace.t} (tid = domain id, single writer, no
    contention); the hub stitches the buffers into a single Chrome
    trace-event document with one row per domain, rebased against a
    common origin so cross-domain causality (reactor receive, worker
    execute) reads left to right.  The merged artifact passes
    {!Trace.validate_chrome_json}. *)

type t

val create : unit -> t

val trace : t -> Trace.t
(** The calling domain's buffer, created on first use.  Safe to call
    from any domain; the result must only be written by that domain. *)

val span : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Record a span on the calling domain's row. *)

val domains : t -> int
(** Number of rows (domains that have recorded anything). *)

val balanced : t -> bool
val event_count : t -> int

val to_chrome_json : t -> string
(** {!Trace.rows_to_json} of the rows in domain-id order: with one row,
    exactly {!Trace.to_chrome_json} of that row. *)

val write_file : t -> string -> unit
