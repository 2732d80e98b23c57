(** Self-healing content-addressed result cache.

    One file per {!Ckey.t} under the cache directory, holding a single
    line [<digest-hex> <payload>] where the digest is the FNV-1a hash
    of the payload bytes.  Every read recomputes the digest: a
    mismatch (bit rot, torn write, injected corruption) evicts the
    entry and reports a miss, so the caller recompiles and the next
    store heals the cache — a corrupt entry can cost one recompile but
    can never serve a wrong answer.  Writes go through a temp file and
    [rename] so readers never observe a half-written entry, and a
    write that fails costs the entry, never the caller's payload. *)

type t

type stats = {
  hits : int;
  misses : int;
  stores : int;
  store_failures : int;  (** Writes lost to an I/O error. *)
  corrupt_evictions : int;
}

val create : dir:string -> t
(** Creates [dir] (and parents) when missing, and removes the
    [*.entry.tmp] files a killed {!store} left in it. *)

val dir : t -> string

val find : t -> Ckey.t -> string option
(** The stored payload, or [None] on miss {e or} after evicting a
    corrupt entry. *)

val store : t -> Ckey.t -> string -> unit
(** Idempotent; later stores for the same key overwrite.  Never
    raises: on an I/O error (a full disk, a removed directory) it
    removes its temp file and counts the failure in [store_failures]. *)

val clear : t -> unit
(** Remove every entry (stats are kept). *)

val stats : t -> stats
