(** Minimal JSON values, emission, and parsing.

    The observability layer writes Chrome trace-event files, remark
    streams, and profiler reports, and CI validates them — without a
    JSON dependency (the toolchain has none).  This module is the
    shared representation: a plain value type, a deterministic
    printer, and a strict recursive-descent parser used by the trace
    validator ({!Trace.validate_chrome_json}, [bin/obscheck]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite numbers render as
    [null] — Chrome's trace loader rejects bare [nan]/[inf]. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing whitespace
    allowed, trailing garbage is an error).  Errors carry a byte
    offset. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)
