(** Content-addressed cache keys for compile/execute jobs.

    The key hashes every input that determines a job's result — and
    nothing else.  The kernel source is canonicalised first (parse,
    then {!Slp_ir.Program.to_source}), so textual noise (whitespace,
    comments, statement-id numbering) cannot split the cache, while
    any semantic change reaches the hash.  Scheme, machine (name and
    SIMD width), unroll, budgets, cores and data seed are framed
    fields of the digest; the wall-clock [timeout] is deliberately
    excluded — a deadline changes whether a job finishes, never what
    it computes.  Job names are labels, not inputs.  A constant
    version field leads the digest; it changes whenever the payload
    computed for the same inputs does, so replies cached by older code
    miss. *)

type t = int64

val of_program :
  op:Proto.jobop -> spec:Proto.spec -> Slp_ir.Program.t -> t
(** Key for an already-parsed kernel (the canonical source is printed
    from the program, so equal structures key equal). *)

val of_spec : op:Proto.jobop -> Proto.spec -> (t * Slp_ir.Program.t, Slp_util.Slp_error.t) result
(** Parse the spec's kernel and key it; a kernel that does not parse
    has no key (and no cacheable result) — the structured frontend
    error comes back instead. *)

val to_hex : t -> string
