(** Content-addressed cache keys for compile/execute jobs.

    The key hashes every input that determines a job's result — and
    nothing else.  It is one FNV-1a digest ({!Slp_util.Fnv.hash_fields})
    over these framed fields, in this order:

    - a version, changed whenever the payload for the same inputs
      changes, so replies cached by older code miss;
    - the op ([compile] or [execute]);
    - the kernel parsed and printed by {!Slp_ir.Program.to_source}, so
      whitespace, comments and statement ids cannot split the cache;
    - the scheme, and the machine's name and SIMD width;
    - the resolved unroll factor ({!Job.unroll});
    - {!render_options} of the resolved compile options
      ({!Job.options});
    - for [execute] only, the core count and the data seed, which only
      an Execute payload reads.

    So a spec that spells out a default ([unroll] equal to the machine's,
    [solver_steps] equal to the pipeline's) keys as the spec that leaves
    it unset, and a Compile job keys alike at any core count or seed.
    The wall-clock [timeout] is deliberately excluded — a deadline
    changes whether a job finishes, never what it computes — and job
    names are labels, not inputs: a cache hit is renamed to the job that
    asked ({!Job.named}).  The rendering matches the option records with
    exhaustive patterns, so a new options field does not compile until
    the key covers it. *)

type t = int64

val of_spec : op:Proto.jobop -> Proto.spec -> (t * Slp_ir.Program.t, Slp_util.Slp_error.t) result
(** Parse the spec's kernel and key it; a kernel that does not parse
    has no key (and no cacheable result) — the structured frontend
    error comes back instead. *)

val render_options : Slp_pipeline.Pipeline.options -> string
(** The canonical rendering of resolved options that the key hashes:
    every field, nested records included, in declaration order. *)

val to_hex : t -> string
