(** FNV-1a 64-bit content hashing.

    The compile service addresses its result cache by a hash of the
    job's semantic inputs and stamps every cache entry with an
    integrity digest that is re-verified on read.  Both uses need a
    deterministic, dependency-free, cheap hash over byte strings with
    good avalanche behaviour — cryptographic strength is not required
    (the cache defends against corruption and aliasing accidents, not
    adversaries), so FNV-1a at 64 bits fits.

    All functions are pure; equal inputs hash equal across runs,
    architectures and OCaml versions (the arithmetic is explicit
    [Int64]). *)

val hash64 : string -> int64
(** FNV-1a over the bytes of the string, standard offset basis and
    prime. *)

val string_into : int64 -> string -> int64
(** Continue a running FNV-1a hash with the string's bytes, unframed:
    [string_into (hash64 a) b = hash64 (a ^ b)], so a long input can be
    hashed piece by piece without building it. *)

val hex_into : int64 -> int64 -> char -> int64
(** [hex_into h v c] continues a running hash with [v]'s lowercase hex
    digits then the byte [c]: the same hash as
    [string_into h (Printf.sprintf "%Lx%c" v c)], without building the
    string. *)

val combine : int64 -> string -> int64
(** Continue a running hash with a length prefix followed by the
    field's bytes.  The length framing keeps field boundaries
    significant, so [["ab"; "c"]] and [["a"; "bc"]] combine to
    different digests. *)

val hash_fields : string list -> int64
(** Fold {!combine} over the fields from the FNV offset basis — the
    cache-key helper. *)

val to_hex : int64 -> string
(** Fixed-width 16-digit lowercase hex. *)

val of_hex : string -> int64 option
(** Inverse of {!to_hex}; [None] on malformed input. *)
