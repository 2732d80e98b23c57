(** Three-level set-associative cache simulator.

    Each access walks L1 → L2 → L3 → memory, charging the latency of
    the level that hits and filling all levels above it (inclusive,
    LRU replacement, write-allocate: reads and writes are charged
    alike).  A contention factor inflates the memory latency when
    several cores are active (paper Figure 21: the scalar code suffers
    more from contention because it issues more memory operations).
    Costs are whole numbers of centicycles (hundredths of a cycle), the
    unit every simulated cost is charged in: the contention terms are
    hundredths, so every sum is exact.

    Simulation allocates nothing.  Each level keeps its tags in one
    flat, set-major [int array] with a per-set fill count, the walk
    is loops, and {!access} returns an unboxed [int].  A run hands its
    caches back with {!release}; the next {!create} on the same domain
    with the same geometry resets a released hierarchy instead of
    allocating one (about 250k words on the Intel model).  Each domain
    keeps at most 8 released hierarchies.  The observer and the
    contention-derived latencies belong to the value [create] returns,
    so nothing observable carries over from a reused one.  The
    hierarchy counts one thing itself, the lines each level misses
    ({!misses}), and only the engine's fast-forward reads them; a
    caller that wants hit counts (the profiler) installs an observer.

    The hit path: a single-line access whose line is the most recently
    used tag of its L1 set reads the L1 level directly and skips the
    walk, whose LRU rotation would be a no-op.  No access calls a
    polymorphic comparison. *)

type t

val create : ?cores:int -> Slp_machine.Machine.t -> t
(** An empty hierarchy for one of [cores] active cores (default 1).
    With [k = 100 + (cores - 1) x contention_per_core], the machine's
    contention factor in hundredths, a cache level's latency costs
    [latency x 100] centicycles, memory's [memory_latency x k], and
    every line access, hits included, pays a shared-bus queueing
    surcharge of [(k - 100) x 8]. *)

val level_count : Slp_machine.Machine.t -> int
(** The number of cache levels {!create} builds for the machine. *)

val release : t -> unit
(** Hand [t]'s tag stores to this domain's reuse list.  [t] must not
    be used afterwards; releasing twice is a no-op. *)

val access : t -> addr:int -> bytes:int -> int
(** Simulate the access and return its cost in centicycles; an access
    spanning several lines pays for each line.  Every timed memory
    access goes through here, so an armed fault ticks first (see
    {!Trap.fault_tick}). *)

val misses : t -> int -> int
(** [misses t k] is how many line accesses missed level [k] (0-based,
    L1 first) since [create]: the walk counts each level it passes,
    and the MRU fast path, an L1 hit, counts nothing.  A level that
    misses nothing over one replay of an access stream holds the same
    lines afterwards; the engine's fast-forward reads these counts
    around each warm-up iteration to find the first steady one. *)

val set_observer : t -> (int -> int -> unit) option -> unit
(** Install (or remove) a per-line-access hook for the profiler:
    called with the line's base address and the level that resolved
    the access (0-based cache level; [max_int] means memory).  Costs
    one option match per line when absent. *)

val tags : t -> int array array array
(** A copy of the hierarchy's contents: per level, L1 first, per set,
    the lines it holds, most recently used first. *)
