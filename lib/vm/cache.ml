module M = Slp_machine.Machine

(* One level's tag store, flat and set-major: set [s] owns
   [tags.(s*ways) .. tags.(s*ways + ways - 1)], most recently used
   first, of which the first [fill.(s)] are valid.  Slot 0 of a set
   with no valid tag holds -1 (no line has that tag), so the L1 fast
   path can test it without reading [fill].  A level holds nothing
   but geometry, contents and the count of lines it missed, which is
   what lets [create] reuse a released one. *)
type level = {
  tags : int array;
  fill : int array;
  ways : int;
  set_count : int;
  set_mask : int;
      (** [set_count - 1] when the count is a power of two (all modeled
          machines), letting set selection be a mask instead of a
          division; [-1] otherwise. *)
  line_bytes : int;
  mutable misses : int;
      (** Lines this level missed since it was made or reset, counted
          by the walk only: the MRU fast path is an L1 hit.  The
          engine's fast-forward reads them to find a loop's first
          steady iteration. *)
}

type t = {
  levels : level array;
  l1 : level;  (** [levels.(0)], read directly by the MRU hit path. *)
  line_shift : int;
      (** log2 of the L1 line size when it is a power of two, for
          shift-based line splitting; [-1] otherwise. *)
  latency : int array;
      (** Centicycles by resolving level, L1 first; the last cell is
          memory, whose latency the contention factor scales. *)
  bus_penalty : int;
      (** Extra centicycles per line access from shared-bus/coherence
          contention when several cores are active. *)
  mutable observer : (int -> int -> unit) option;
      (** Profiler hook: called per line access with the line's base
          address and the resolving level (0-based; [max_int] means
          memory).  One option match when absent. *)
  mutable released : bool;
}

let log2_pow2 n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  if n <= 0 then -1 else go 0

let set_count_of (c : M.cache_level) = max 1 (c.M.size_bytes / (c.M.ways * c.M.line_bytes))

let make_level (c : M.cache_level) =
  let set_count = set_count_of c in
  {
    tags = Array.make (set_count * c.M.ways) (-1);
    fill = Array.make set_count 0;
    ways = c.M.ways;
    set_count;
    set_mask = (if log2_pow2 set_count >= 0 then set_count - 1 else -1);
    line_bytes = c.M.line_bytes;
    misses = 0;
  }

(* Empty every set.  Only slot 0 of a non-empty set needs clearing:
   lookups never read past [fill], and inserts shift only valid tags. *)
let reset_level l =
  l.misses <- 0;
  for s = 0 to l.set_count - 1 do
    if Array.unsafe_get l.fill s > 0 then begin
      Array.unsafe_set l.fill s 0;
      Array.unsafe_set l.tags (s * l.ways) (-1)
    end
  done

(* Hierarchies released by finished runs, per domain, newest first.
   A hierarchy holds about 250k words of tags on the Intel model;
   allocating one per run would fill the major heap and force major
   collections. *)
let max_released = 8
let released_levels : level array list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let fits (c : M.cache_level) l =
  l.ways = c.M.ways && l.line_bytes = c.M.line_bytes && l.set_count = set_count_of c

let take_released specs =
  let free = Domain.DLS.get released_levels in
  match List.find_opt (fun levels -> Array.for_all2 fits specs levels) !free with
  | None -> None
  | Some levels ->
      free := List.filter (fun l -> l != levels) !free;
      Array.iter reset_level levels;
      Some levels

let specs (m : M.t) = [| m.M.l1; m.M.l2; m.M.l3 |]
let level_count m = Array.length (specs m)

let create ?(cores = 1) (m : M.t) =
  let specs = specs m in
  let levels =
    match take_released specs with Some levels -> levels | None -> Array.map make_level specs
  in
  (* The contention factor in hundredths: every core past the first
     adds [contention_per_core] hundredths of the DRAM latency. *)
  let k = 100 + ((cores - 1) * m.M.contention_per_core) in
  let latency = Array.make (Array.length specs + 1) (m.M.memory_latency * k) in
  Array.iteri (fun i (c : M.cache_level) -> latency.(i) <- c.M.latency * 100) specs;
  (* Every access occupies the shared memory subsystem briefly; under
     contention that occupancy turns into queueing delay even on cache
     hits (this is what makes the scalar code scale worse than the
     vectorized code in Figure 21): 8 cycles times the factor's excess
     over 1. *)
  let bus_penalty = (k - 100) * 8 in
  {
    levels;
    l1 = levels.(0);
    line_shift = log2_pow2 levels.(0).line_bytes;
    latency;
    bus_penalty;
    observer = None;
    released = false;
  }

let release t =
  if not t.released then begin
    t.released <- true;
    let free = Domain.DLS.get released_levels in
    if List.length !free < max_released then free := t.levels :: !free
  end

let set_observer t f = t.observer <- f

let[@inline] set_of level line =
  if level.set_mask >= 0 then line land level.set_mask else line mod level.set_count

let[@inline] line_of t addr =
  if t.line_shift >= 0 then addr asr t.line_shift else addr / t.levels.(0).line_bytes

let line_addr t line =
  if t.line_shift >= 0 then line lsl t.line_shift else line * t.levels.(0).line_bytes

let[@inline] notify t line level =
  match t.observer with
  | None -> ()
  | Some f -> f (line_addr t line) level

(* Probe one level for a line and make it MRU: on a hit it moves to
   the front of its set, on a miss it is inserted there (filling the
   level, evicting the LRU tag of a full set) and counted.  Returns
   whether it hit.  The accesses are unsafe: [set] comes out of
   [set_of], so [base + ways] is within [tags], and every position is
   below [ways].  LRU rotations shift at most [ways] tags; a manual
   loop beats the memmove call overhead at these sizes. *)
let touch level line =
  let set = set_of level line in
  let base = set * level.ways in
  let tags = level.tags in
  let n = Array.unsafe_get level.fill set in
  let idx = ref 0 in
  while !idx < n && Array.unsafe_get tags (base + !idx) <> line do
    incr idx
  done;
  let hit = !idx < n in
  let last =
    if hit then !idx
    else begin
      level.misses <- level.misses + 1;
      let n' = Int.min (n + 1) level.ways in
      Array.unsafe_set level.fill set n';
      n' - 1
    end
  in
  for k = base + last downto base + 1 do
    Array.unsafe_set tags k (Array.unsafe_get tags (k - 1))
  done;
  Array.unsafe_set tags base line;
  hit

(* Walk L1 → L2 → L3 → memory for one line, filling every level that
   misses on the way (an inclusive hierarchy).  Returns the index of
   the resolving level, [Array.length t.levels] for memory, which is
   also its cell of [t.latency]. *)
let access_line t line =
  let nlevels = Array.length t.levels in
  let i = ref 0 in
  while !i < nlevels && not (touch (Array.unsafe_get t.levels !i) line) do
    incr i
  done;
  let level = !i in
  (* Memory is [max_int], not [level]: observers bin by level index
     and must see memory as "beyond any cache level" whatever the level
     count of this particular hierarchy. *)
  notify t line (if level < nlevels then level else max_int);
  level

let access t ~addr ~bytes =
  (* Fault-injection chokepoint of timed runs: every memory access of
     the interpreters AND the compiled engine goes through the cache
     here, even where the engine bypasses [Memory.load/store].  (The
     engine's values-only closures skip the cache and tick at the same
     point themselves.)  One flag read when disarmed. *)
  if !Trap.fault_enabled then Trap.fault_tick ();
  let first = line_of t addr and last = line_of t (addr + Int.max 1 bytes - 1) in
  if first = last then begin
    (* Fast path for the dominant case: a single line that is the MRU
       entry of its L1 set.  The walk would find it at position 0 and
       the LRU rotation would be a no-op, so the state and the cost are
       identical. *)
    let l1 = t.l1 in
    if Array.unsafe_get l1.tags (set_of l1 first * l1.ways) = first then begin
      notify t first 0;
      t.latency.(0) + t.bus_penalty
    end
    else t.latency.(access_line t first) + t.bus_penalty
  end
  else begin
    let cost = ref 0 in
    for line = first to last do
      cost := !cost + t.latency.(access_line t line) + t.bus_penalty
    done;
    !cost
  end

let misses t level = t.levels.(level).misses

let tags t =
  Array.map
    (fun l -> Array.init l.set_count (fun s -> Array.sub l.tags (s * l.ways) l.fill.(s)))
    t.levels
