(** Typed, labeled metric instruments with lock-free updates.

    The service-facing metrics core: counter / gauge / histogram
    families carry declared label keys, and series are materialised
    per label-value tuple.  Each counter, histogram bucket and
    histogram sum is one atomic cell, so concurrent domains update it
    without a lock.  Histograms are log-bucketed with fixed-point
    sums, making snapshot merges exactly associative — a merged
    snapshot is bit-identical no matter the merge order.  Scrapes
    ([snapshot] / [to_json] / [to_prometheus]) copy under the
    per-family lock and format outside it. *)

type t
(** A registry of instrument families. *)

val create : unit -> t

val on_collect : t -> (unit -> unit) -> unit
(** Register a hook run at the start of every scrape, before values
    are read — for refreshing gauges derived from other state (queue
    depth, live workers, cache hit rate). *)

(** {1 Histogram layout and snapshots} *)

type layout
(** Geometric bucket bounds plus the fixed-point scale for sums. *)

val log_layout :
  ?scale:float -> base:float -> growth:float -> buckets:int -> unit -> layout
(** [buckets] bounds at [base * growth^i]; observations above the last
    bound land in an implicit overflow bucket.  [scale] (default 1e9)
    is the fixed-point multiplier for the mergeable sum. *)

val seconds : layout
(** Default latency layout: 1us to ~134s in 28 doubling buckets. *)

type hsnap = {
  hbounds : float array;
  hgrowth : float;
  hscale : float;
  hcounts : int array;  (** per-bucket counts; last slot is overflow *)
  hsum_fp : int64;  (** fixed-point sum: round (v * hscale) summed *)
}

val hcount : hsnap -> int

val hmerge : hsnap -> hsnap -> hsnap
(** Merge two snapshots of the same layout.  Integer adds throughout,
    so the result is bit-identical for any merge order or grouping.
    @raise Invalid_argument on layout mismatch. *)

val hquantile : hsnap -> float -> float
(** Estimated q-quantile: the upper bound of the bucket containing
    rank [ceil (q * count)].  Never below the exact order statistic
    and at most one growth factor above it; [infinity] when the rank
    falls in the overflow bucket, [nan] when empty. *)

(** {1 Instruments} *)

module Counter : sig
  type family
  type handle

  val family : t -> ?help:string -> ?labels:string list -> string -> family
  val handle : family -> string list -> handle
  (** Resolve one label-value tuple; cache the handle on hot paths. *)

  val plain : t -> ?help:string -> string -> handle
  (** Unlabeled family + its only handle in one step. *)

  val incr : ?by:int -> handle -> unit
  val value : handle -> int
end

module Gauge : sig
  type family
  type handle

  val family : t -> ?help:string -> ?labels:string list -> string -> family
  val handle : family -> string list -> handle
  val plain : t -> ?help:string -> string -> handle
  val set : handle -> float -> unit
  val value : handle -> float
end

module Histogram : sig
  type family
  type handle

  val family :
    t -> ?help:string -> ?labels:string list -> ?layout:layout -> string -> family

  val handle : family -> string list -> handle
  val plain : t -> ?help:string -> ?layout:layout -> string -> handle
  val observe : handle -> float -> unit
  val snap : handle -> hsnap
  (** Read the bucket counts and the sum into a snapshot. *)
end

(** {1 Scraping} *)

type kind = Counter_k | Gauge_k | Histogram_k

type value = Vcounter of float | Vgauge of float | Vhist of hsnap
type sample = { labels : (string * string) list; value : value }

type family_snap = {
  name : string;
  help : string;
  skind : kind;
  samples : sample list;
}

val snapshot : t -> family_snap list
(** Families in registration order, series sorted by label values;
    collect hooks run first. *)

val get : ?where:(string * string) list -> t -> string -> float
(** Sum every series of family [name] whose labels include all
    [where] pairs (default: every series); histograms contribute their
    observation count.  0 for unknown families.  Reads a fresh
    {!snapshot}, so collect hooks run first. *)

val to_json : t -> Json.t
(** Full structured snapshot: every family with kind, help, and series
    (histograms include count/sum/p50/p90/p99/buckets). *)

val to_prometheus : t -> string
(** Prometheus/OpenMetrics text exposition, rendered by hand:
    # HELP / # TYPE comments, cumulative histogram buckets with [le]
    labels, [_sum] and [_count] series. *)

val validate_exposition : string -> (unit, string) result
(** Structural checker for exposition text: samples must follow a
    # TYPE for their family; (name, label-set) pairs unique; counter
    families end in [_total] and vice versa; histogram families end in
    [_seconds]; bucket counts nondecreasing in [le]; [+Inf] bucket
    equals [_count]; [_sum] present. *)
