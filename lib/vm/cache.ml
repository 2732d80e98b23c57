module M = Slp_machine.Machine

type level = {
  sets : int array array;  (** Per set: tags in LRU order (front = MRU). *)
  fill : int array;  (** Number of valid tags per set. *)
  set_count : int;
  set_mask : int;
      (** [set_count - 1] when the count is a power of two (all modeled
          machines), letting set selection be a mask instead of a
          division; [-1] otherwise. *)
  line_bytes : int;
  latency : int;
}

type t = {
  levels : level array;
  line_shift : int;
      (** log2 of the L1 line size when it is a power of two, for
          shift-based line splitting; [-1] otherwise. *)
  memory_latency : float;
  bus_penalty : float;
      (** Extra cycles per line access from shared-bus/coherence
          contention when several cores are active. *)
  mutable level_hits : int array;
  mutable memory_accesses : int;
  mutable total : int;
  mutable observer : (int -> int -> unit) option;
      (** Profiler hook: called per line access with the line's base
          address and the resolving level (0-based; one past the last
          cache level means memory).  One option match when absent. *)
}

let log2_pow2 n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  if n <= 0 then -1 else go 0

let make_level (c : M.cache_level) =
  let set_count = max 1 (c.M.size_bytes / (c.M.ways * c.M.line_bytes)) in
  {
    sets = Array.init set_count (fun _ -> Array.make c.M.ways (-1));
    fill = Array.make set_count 0;
    set_count;
    set_mask = (if log2_pow2 set_count >= 0 then set_count - 1 else -1);
    line_bytes = c.M.line_bytes;
    latency = c.M.latency;
  }

let set_of level line =
  if level.set_mask >= 0 then line land level.set_mask else line mod level.set_count

let create ?(contention = 1.0) (m : M.t) =
  let levels = [| make_level m.M.l1; make_level m.M.l2; make_level m.M.l3 |] in
  {
    levels;
    line_shift = log2_pow2 levels.(0).line_bytes;
    memory_latency = float_of_int m.M.memory_latency *. contention;
    (* Every access occupies the shared memory subsystem briefly; under
       contention that occupancy turns into queueing delay even on
       cache hits (this is what makes the scalar code scale worse than
       the vectorized code in Figure 21). *)
    bus_penalty = (contention -. 1.0) *. 8.0;
    level_hits = Array.make 3 0;
    memory_accesses = 0;
    total = 0;
    observer = None;
  }

let set_observer t f = t.observer <- f

let line_addr t line =
  if t.line_shift >= 0 then line lsl t.line_shift
  else line * t.levels.(0).line_bytes

let notify t line level =
  match t.observer with
  | None -> ()
  | Some f -> f (line_addr t line) level

(* Probe one level for a line: returns true on hit; on hit or fill the
   line becomes MRU. *)
(* The hot loops below use unsafe array accesses: [set] comes out of
   [set_of] so it is always < [set_count] = length of [sets]/[fill],
   and every tag index is bounded by [fill.(set)] <= ways = length of
   the tag array. *)
let touch level line ~insert =
  let set = set_of level line in
  let tags = Array.unsafe_get level.sets set in
  let n = Array.unsafe_get level.fill set in
  let rec find i =
    if i >= n then -1
    else if Array.unsafe_get tags i = line then i
    else find (i + 1)
  in
  let idx = find 0 in
  (* LRU rotations shift at most [ways] tags; a manual loop beats the
     memmove call overhead at these sizes. *)
  if idx >= 0 then begin
    (* Move to front. *)
    let tag = Array.unsafe_get tags idx in
    for k = idx downto 1 do
      Array.unsafe_set tags k (Array.unsafe_get tags (k - 1))
    done;
    Array.unsafe_set tags 0 tag;
    true
  end
  else begin
    if insert then begin
      let n' = min (n + 1) (Array.length tags) in
      for k = n' - 1 downto 1 do
        Array.unsafe_set tags k (Array.unsafe_get tags (k - 1))
      done;
      Array.unsafe_set tags 0 line;
      Array.unsafe_set level.fill set n'
    end;
    false
  end

let access_line t line =
  t.total <- t.total + 1;
  let rec walk i =
    if i >= Array.length t.levels then begin
      t.memory_accesses <- t.memory_accesses + 1;
      (* [max_int], not [i]: observers bin by level index and must see
         memory as "beyond any cache level" whatever the level count of
         this particular hierarchy. *)
      notify t line max_int;
      t.memory_latency
    end
    else if touch t.levels.(i) line ~insert:true then begin
      t.level_hits.(i) <- t.level_hits.(i) + 1;
      notify t line i;
      float_of_int t.levels.(i).latency
    end
    else begin
      let below = walk (i + 1) in
      (* Line already filled into this level by [touch]'s insert. *)
      below
    end
  in
  (* First probe without insert at the hitting level is already handled
     by touch's insert-on-miss: a miss inserts the line (fill on the
     way back), which is what an inclusive hierarchy does. *)
  walk 0

let access t ~addr ~bytes ~write:_ =
  (* Fault-injection chokepoint of timed runs: every memory access of
     the interpreters AND the compiled engine charges the cache here,
     even where the engine bypasses [Memory.load/store].  (The
     engine's values-only closures skip the cache and tick at the same
     point themselves.)  One flag read when disarmed. *)
  if !Trap.fault_enabled then Trap.fault_tick ();
  let first, last =
    if t.line_shift >= 0 then
      (addr asr t.line_shift, (addr + max 1 bytes - 1) asr t.line_shift)
    else begin
      let line_bytes = t.levels.(0).line_bytes in
      (addr / line_bytes, (addr + max 1 bytes - 1) / line_bytes)
    end
  in
  if first = last then begin
    (* Fast path for the dominant case: a single line that is the MRU
       entry of its L1 set.  The slow path would find it at position 0
       and the LRU rotation would be a no-op, so the state and the
       returned cycles are identical. *)
    let l1 = Array.unsafe_get t.levels 0 in
    let tags = Array.unsafe_get l1.sets (set_of l1 first) in
    if Array.unsafe_get tags 0 = first then begin
      t.total <- t.total + 1;
      t.level_hits.(0) <- t.level_hits.(0) + 1;
      notify t first 0;
      float_of_int l1.latency +. t.bus_penalty
    end
    else access_line t first +. t.bus_penalty
  end
  else begin
    let cycles = ref 0.0 in
    for line = first to last do
      cycles := !cycles +. access_line t line +. t.bus_penalty
    done;
    !cycles
  end

let reset t =
  Array.iter
    (fun l ->
      Array.iteri (fun i _ -> l.fill.(i) <- 0) l.fill;
      Array.iter (fun s -> Array.fill s 0 (Array.length s) (-1)) l.sets)
    t.levels;
  t.level_hits <- Array.make 3 0;
  t.memory_accesses <- 0;
  t.total <- 0

let hits t = (t.level_hits.(0), t.level_hits.(1), t.level_hits.(2))
let misses t = t.memory_accesses
let accesses t = t.total
