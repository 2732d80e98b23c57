(** Deterministic pseudo-random number generator (splitmix64).

    All workload generators and simulators in this repository draw
    randomness exclusively from explicitly-seeded [Prng.t] values so
    that experiments, tests and benchmarks are reproducible bit-for-bit
    across runs. *)

type t

val create : int -> t
(** [create seed] builds a generator; equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val fill_floats : t -> float -> floatarray -> unit
(** [fill_floats t bound a] sets [a.(i)] to [float t bound] for each
    [i] in order (the same values and final state) without allocating. *)

val bool : t -> bool
val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** A fresh generator with an independent-looking stream, advancing the
    parent by one step. *)
