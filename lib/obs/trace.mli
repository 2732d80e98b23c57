(** Hierarchical span tracer with Chrome trace-event export.

    A trace is an append-only buffer of begin/end ("B"/"E") duration
    events stamped with {!Clock} timestamps.  Spans nest: the pipeline
    opens a span per stage, passes open sub-spans per block or per
    attempt, and the result loads directly into [chrome://tracing] /
    Perfetto as a flame graph of where compile time went.

    Recording is cheap (a list cons and a clock read per edge) and the
    tracer is only consulted when the caller opted in via [Obs]. *)

type t

val create : ?pid:int -> ?tid:int -> unit -> t
(** Fresh empty trace.  [pid]/[tid] default to 1; they only matter for
    grouping in the Chrome viewer. *)

val span : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] bracketed by a begin/end event pair.  The
    end event is emitted even if [f] raises, so traces stay balanced
    on the error path. *)

val begin_span : t -> ?args:(string * string) list -> string -> unit
(** Emit a lone begin event.  Nothing outside {!span} closes it, so a
    trace built this way is unbalanced — what the validator tests
    need. *)

val balanced : t -> bool
(** True iff every begun span has ended, in properly nested order. *)

val event_count : t -> int

val events : t -> (string * char * float * (string * string) list) list
(** Chronological [(name, ph, ts, args)] tuples with raw {!Clock}
    timestamps, for readers that rebuild the span tree. *)

val rows_to_json : t list -> Json.t
(** The one Chrome trace-event encoder:
    [{"traceEvents":[...],"displayTimeUnit":"ms"}], each buffer's
    events in order under its own pid/tid row, with microsecond ["ts"]
    values relative to the earliest first event of any row.
    {!Tracehub} writes its per-domain rows through it. *)

val write_rows : t list -> string -> unit
(** {!rows_to_json} to a file, newline-terminated. *)

val to_chrome_json : t -> string
(** The document of one buffer: ["ts"] relative to its first event. *)

val write_file : t -> string -> unit

val validate_chrome_json : string -> (int, string) result
(** Check that a string is well-formed Chrome trace JSON with
    balanced, properly nested B/E spans per (pid, tid) and
    non-decreasing timestamps.  Returns the event count.  Used by the
    CI trace check ([bin/obscheck]) and the property tests. *)
