(* Closure-compiled execution engine.

   The legacy interpreters ([Scalar_exec], [Vector_exec]) re-resolve
   everything on every loop iteration: loop indices through an assoc
   list, scalars through a string-keyed hash table, vector registers
   through an int-keyed hash table, and affine subscripts through a
   string-map fold.  This module performs that resolution once, as a
   *compilation* step: a program becomes a tree of OCaml closures over
   a flat execution state — scalar names resolved to integer slots in
   [Memory]'s flat backing store, vector registers packed into one
   unboxed [floatarray] register file, loop indices in an int frame
   indexed by nesting depth, affine subscripts specialised to
   [base + sum coeff*frame.(d)] multiply-adds, and per-instruction
   cost constants hoisted out of the loop.

   There is one item compiler ([compile_items], over [Visa] items) and
   one driver ([run]).  A scalar program runs as the Visa program
   [Visa.of_program] makes of it: no setup, and every statement an
   [Sstmt], which [compile_instr] compiles with the same
   [compile_stmt] as the unplanned blocks of lowered code.  The driver
   takes its chunk-independence verdict from {!Parcheck.analyze} of
   the program it runs, so both entry points get it from the same
   rules.

   There are three compiles.  Two are modes of [compile_items], fixed
   per run in the link context.  A timed run (the two entry points
   above) simulates the cache, counts events and charges cycles.  A
   values-only run ([scalar_final_memory] for the scalar-reference
   check, [vector_final_memory]) only computes, checks and stores.
   Both link the same closure per instruction: each compiler binds the
   mode once, at link time, as the constant [timed], and the closure
   runs its counter updates, cycle charge and [Cache.charge] only when
   it is set.  A values-only closure makes the same bounds and
   register-lane checks and memory writes in the same order, and its
   fault tick ([tick]) stands where the timed one calls
   [Cache.charge], after the bounds check, so an armed fault lands on
   the same access.  Everything else — driver, chunking,
   privatization, reduction merging, states (caches included) — is
   shared, so the final memory is bit-identical to the timed run's.

   A one-core timed run without a profiler fast-forwards every loop
   that replays one cache-line stream: no subscript and no inner loop
   bound of its body mentions its index, so every iteration makes the
   same accesses at the same addresses ([repeat], [replay_tail]).
   Each cache level is an LRU store fed by the misses of the level
   above, and an LRU set fed one stream twice ends exactly as it ended
   the first time; so with L levels, levels 1 .. j are in a fixed
   state from the start of iteration j + 1 on, and iteration L + 1 and
   every later one charge the same counts and cycles.  Most loops are
   steady sooner: iteration k (k <= L) is steady when it missed no line
   at level k.  Levels 1 .. k - 1 had settled before it began, so they
   feed level k the same stream in iteration k + 1; a level that
   missed nothing still holds the same lines, so it misses nothing
   again, resolves each access at the same level, ends in the same LRU
   order and passes nothing deeper.  So iteration k + 1 charges exactly
   what iteration k charged and leaves the hierarchy as iteration k
   left it, and so does every later one.  [forward] simulates up to
   L + 1 iterations, reading {!Cache.misses} around each, stops at the
   first steady one, adds its counter and cycle increments once per
   remaining iteration, and runs the remaining ones on a values-only
   compile of the body: their values, traps, lane errors and fault
   ticks are the timed run's, their cache accesses are skipped.  The
   cache ends in the state full simulation leaves.  A fast-forwarded
   inner loop keeps the rule exact for the loops around it: its
   skipped iterations repeat its steady one, which was simulated and
   counted, so "no miss at level k" holds over the skipped accesses
   exactly when it holds over the simulated ones.  This is exact only
   at one core, where every cost is an integer-valued float and the
   sums stay below 2^53 (see below; a loop that would pass 2^53
   simulates on).  A multicore run's contention costs need not be
   integers, and a profiled run observes every access, so both compile
   every loop to full simulation ([simulate]), as do loops without the
   property.  The cache counts only misses per level, for [forward];
   the profiler counts what its observer sees, so a profiled run keeps
   full simulation.

   A replaying loop settles when, besides, the state one iteration
   leaves is a fixed point of its body ([repeat] decides it once per
   loop, at link time, from names alone): its index appears nowhere in
   the body, not even as a value, and no location the body reads
   before writing it is written in it.  Both come from the def/use
   walk {!Visa.first_reads}, which applies the inner-loop trip rule
   and counts an array as one location, so no array the body writes
   is read in it, and every scalar, register and spill slot it writes
   is written before it is read.  Every value an
   iteration computes then depends only on locations the body never
   writes, so the second iteration writes exactly what the first
   wrote, at the same addresses, and raises no trap or lane error the
   first did not.  Reading the index as a value breaks this though no
   address moves: [A[i] = t] writes a new value in every iteration.
   So a one-core timed run skips the values of a settled loop's
   iterations past the warm-up outright, and a one-core values-only
   run ([settle_tail]) runs one iteration of it and skips the rest.
   Neither skips while a fault is armed, and multicore and profiled
   runs never do.  The scalar-reference check is a values-only run, so
   at one core it shares the skip with the run it checks; only the
   interpreters, which simulate and compute every iteration, are
   independent of it.

   The third, timing-only ([run_timing], the Global+Layout
   arbitration's probes and other callers that read only counters),
   computes no values: no memory initialisation, register file or
   expression tree.  It is exact only at one core, and takes no core
   count.  There the contention factor is 1.0, so the cache's bus
   surcharge is 0 and every latency, issue and op cost is an
   integer-valued float; every partial sum of a run's cycles is an
   integer below 2^53, so each addition is exact and the total does
   not depend on their order.  So [time_block] folds a [Visa.Block]'s
   non-memory cycles and all its counter increments into one static
   delta, added once per execution of the block, and keeps one closure
   per memory access: the timed closure's bounds check and address
   ([link_elem], [contig]), then [Cache.charge] with its bytes and
   issue cost.  Accesses run in the timed run's order, so the cache
   sees the same stream, the counters and cycles are bit-identical, a
   bounds trap names the same access and an armed fault ticks on the
   same one.  The timed closures also check register lane counts
   (read before write, a lane past a register's width); those are
   proved before the run ([lanes_proven]) by walking each loop body
   over every lane state that can enter it.  A program the proof
   rejects, any program that spills (a reload's lane count lives in
   the spill arena) and one whose accesses fail to link run on the
   timed engine instead; nothing selects the path but the program.
   Loops, setup and the driver ([link_items], [run_setup],
   [run_items]) are the timed run's, and so is the fast-forward,
   except that the iterations past the warm-up are skipped outright,
   unless a fault is armed: its ticks need every access, so the loop
   simulates on.  Its address map ({!Memory.layout}) has bases,
   dimensions, element sizes and scalar addresses but no element
   storage.

   All hot-path storage is unboxed and preallocated: the register
   file is a single [floatarray] of [nvregs * stride] cells (register
   [r]'s lanes live at [r*stride ..]), lane counts live in a side
   [int array], and shuffle scratch and spill slots are state-owned
   flat arenas.  Compiled closures carry no mutable compile-time
   scratch, so one compiled program can be run by many states —
   including states owned by different domains.

   Array addressing ([compile_flat]).  A 1-D subscript, and a rank-2
   subscript with at most one loop term per dimension (the NAS
   kernels' [X[p][i]], every suite kernel's shape), link into one
   closure that computes the index, bounds-checks it dimension by
   dimension and flattens it inline.  Other shapes loop over their
   linked per-dimension constants and term arrays; no shape calls a
   closure per dimension.  A vload or vstore whose pack is contiguous
   along the last dimension of a rank-1 or rank-2 array — the same
   leading subscripts in every lane, and lane k's last subscript lane
   0's plus k, the packs the lowering pass emits for adjacent lanes —
   compiles to one range check over all lanes plus a flat copy
   ([contig]).  When that check fails it replays the per-lane checks,
   so the trap names the same lane and dimension as the interpreter's.

   Execution allocates nothing per simulated access.  The build passes
   [-opaque] and this toolchain has no flambda, so a float returned
   from a closure or from another module is always boxed; no closure
   here returns one.  Expression nodes write their value into the
   state's [tmp] slots (a binary node's right operand at its own slot
   [dst], its left at [dst + 1], so an expression needs
   [1 + Expr.depth] slots), lane sources write straight into their
   register lane, and {!Cache.charge} adds an access's cycles into the
   state's accumulator cell.  Subscripts are loops over unboxed
   coefficient arrays, not [Array.iter] closures.  A run takes its
   caches from {!Cache}'s per-domain reuse list and releases them when
   it finishes (a trapped run does not), so a run allocates only what
   compiling its closures needs.  [test/test_vm.ml]'s allocation
   budget holds timed and values-only runs under 0.1 minor words per
   simulated memory access.

   The engine is observationally identical to the interpreters:
   memory, counters and cycles are bit-identical (the differential
   fuzz suite asserts this).  Every cache access it simulates happens
   at the same address in the same order, every counter increments at
   the same point, and cycles accumulate in the same floating-point
   order; at one core a fast-forwarded loop's remaining iterations add
   the same integers in fewer, exact additions, and a settled loop's
   remaining iterations would rewrite the values already there.  The
   interpreters simulate and compute every iteration and remain as the
   reference oracle; they share no code with either skip. *)

open Slp_ir
module M = Slp_machine.Machine
module Profile = Slp_obs.Profile
module Depend = Slp_depend.Depend
module FA = Float.Array

type result = { counters : Counters.t; memory : Memory.t }

(* Per-core mutable execution state.  Memory-dependent data (array
   backing stores, base addresses, scalar slots) is captured inside
   the compiled closures at link time; memory itself is shared across
   cores, like the interpreters'. *)
type state = {
  cache : Cache.t;
  counters : Counters.t;
  cycles : float array;
      (** Single-cell cycle accumulator.  [Counters.t] mixes int and
          float fields, so its float fields are boxed and every
          [cycles <- cycles +. c] would allocate; accumulating in a
          float array cell is allocation-free and the drivers copy the
          total into [counters] at run boundaries.  The additions
          happen in the same order as the interpreters', so the result
          is bit-identical. *)
  frame : int array;  (** Loop index value per nesting depth. *)
  tmp : floatarray;
      (** Expression temporaries: a compiled expression writes its
          value into the slot its compiler assigned (slot 0 for a
          statement's right-hand side). *)
  vregs : floatarray;
      (** Flat register file: register [r]'s lanes at [r*stride ..]
          (the stride is the program's widest lane count, baked into
          every compiled offset). *)
  vlanes : int array;  (** Lane count per register; -1 = never written. *)
  fscratch : floatarray;  (** One register's worth of shuffle scratch. *)
  iscratch : int array;  (** Flat-index scratch for gathered loads. *)
  spills : floatarray;  (** Spill arena, same stride as [vregs]. *)
  spill_ln : int array;  (** Lane count per spill slot; -1 = unset. *)
  sdata : floatarray;
      (** The scalar slot store this state reads and writes.  All
          states of a sequential run share [Memory]'s backing store;
          the domain-parallel legs give each core a private copy
          (chunk-independence proved by {!Parcheck}) merged back in
          core order, so privatizable temporaries such as an FFT's
          [tr]/[ti] cannot race across domains. *)
}

let charge st c = Array.unsafe_set st.cycles 0 (Array.unsafe_get st.cycles 0 +. c)

(* A values-only closure's stand-in for [Cache.charge]: the fault tick
   at the same point of the same access, so an armed fault fires
   there. *)
let[@inline] tick () = if !Trap.fault_enabled then Trap.fault_tick ()

(* -- profiling ------------------------------------------------------ *)

(* Every cycle the engine charges happens inside a compiled statement
   or instruction closure, so bracketing each closure with a cycle
   delta attributes the entire run total to source constructs — the
   per-key sums equal [Counters.total_cycles] exactly (per core).
   Cache accesses ride the same bracket: the profile's current-stat
   pointer is set for the closure's duration and the cache observer
   bins each access against it.  With profiling off the closure is
   returned untouched — the unprofiled path compiles to the same code
   as before. *)
let wrap_profile prof key f =
  match prof with
  | None -> f
  | Some p ->
      let s = Profile.stat p key in
      fun st ->
        let before = st.cycles.(0) in
        Profile.set_current p (Some s);
        f st;
        Profile.set_current p None;
        Profile.add s ~cycles:(st.cycles.(0) -. before)

let opcode_name = function
  | Visa.Vload _ -> "vload"
  | Visa.Vstore _ -> "vstore"
  | Visa.Vgather _ -> "vgather"
  | Visa.Vunpack _ -> "vunpack"
  | Visa.Vbroadcast _ -> "vbroadcast"
  | Visa.Vpermute _ -> "vpermute"
  | Visa.Vshuffle2 _ -> "vshuffle2"
  | Visa.Vbin _ -> "vbin"
  | Visa.Vun _ -> "vun"
  | Visa.Vspill _ -> "vspill"
  | Visa.Vreload _ -> "vreload"
  | Visa.Vload_scalars _ -> "vload_scalars"
  | Visa.Vstore_scalars _ -> "vstore_scalars"
  | Visa.Sstmt _ -> "sstmt"

(* Key for an instruction with no recorded origin: scalar statements
   keep their statement id, everything else degrades to its opcode. *)
let fallback_key = function
  | Visa.Sstmt s -> Profile.Stmt s.Stmt.id
  | instr -> Profile.Op (opcode_name instr)

let register_arrays p env memory =
  List.iter
    (fun (name, (info : Env.array_info)) ->
      let bytes =
        Memory.elem_bytes memory name * List.fold_left ( * ) 1 info.Env.dims
      in
      Profile.register_array p ~name
        ~base:(Memory.array_base memory name)
        ~bytes)
    (Env.arrays env)

let observe_cache profile cache =
  match profile with
  | None -> ()
  | Some p ->
      Cache.set_observer cache
        (Some (fun addr level -> Profile.note_access p ~addr ~level))

let vreg_lanes st r =
  let n = Array.unsafe_get st.vlanes r in
  if n < 0 then invalid_arg (Printf.sprintf "Vector_exec: v%d read before write" r);
  n

(* Compiled top-level items keep their loop structure exposed so the
   multicore driver can override the bounds of the partitioned loop;
   nested structure is folded into plain closures. *)
type citem = Cblock of (state -> unit) | Cloop of cloop

and cloop = {
  c_depth : int;
  c_step : int;
  c_lo : state -> int;
  c_hi : state -> int;
  c_const_bounds : (int * int) option;
  c_body : state -> unit;
  c_tail : tail;
}

(* How a loop runs its iterations.  [Simulate]: every one on [c_body].
   [Forward]: the loop replays one cache-line stream, or settles (see
   [forward]); up to [warm] iterations run on [c_body], the rest on
   [values] (a values-only compile of the body) or, when [values] is
   [None], not at all.  The skipped iterations count in each of
   [counts]. *)
and tail =
  | Simulate
  | Forward of { warm : int; values : (state -> unit) option; counts : int Atomic.t list }

(* Iterations whose cache simulation was skipped, and iterations whose
   values were. *)
let forwarded = Atomic.make 0
let forwarded_iterations () = Atomic.get forwarded
let settled = Atomic.make 0
let settled_iterations () = Atomic.get settled

(* [now] plus [times] more of what each of the last [iterations]
   iterations gained since [was]: every iteration of a replaying loop
   runs the same instructions, so each gained the same.  Top-level, as
   a local closure over both counts would be allocated on every
   fast-forward. *)
let more ~iterations ~times now was = now + (times * ((now - was) / iterations))

(* Add [times] more of the per-iteration counts [c] gained over the
   [iterations] iterations since [before]: the int fields only (a float
   field update would box). *)
let repeat_counts (c : Counters.t) ~(before : Counters.t) ~iterations ~times =
  c.scalar_ops <- more ~iterations ~times c.scalar_ops before.scalar_ops;
  c.vector_ops <- more ~iterations ~times c.vector_ops before.vector_ops;
  c.scalar_loads <- more ~iterations ~times c.scalar_loads before.scalar_loads;
  c.scalar_stores <- more ~iterations ~times c.scalar_stores before.scalar_stores;
  c.vector_loads <- more ~iterations ~times c.vector_loads before.vector_loads;
  c.vector_stores <- more ~iterations ~times c.vector_stores before.vector_stores;
  c.pack_loads <- more ~iterations ~times c.pack_loads before.pack_loads;
  c.pack_stores <- more ~iterations ~times c.pack_stores before.pack_stores;
  c.inserts <- more ~iterations ~times c.inserts before.inserts;
  c.extracts <- more ~iterations ~times c.extracts before.extracts;
  c.permutes <- more ~iterations ~times c.permutes before.permutes;
  c.broadcasts <- more ~iterations ~times c.broadcasts before.broadcasts

(* A [Forward] loop (the argument is in the header): up to [warm]
   iterations run on [c_body], and the first steady one's counter and
   cycle increments are added once per remaining iteration.  Warm-up
   iteration [k < warm] is steady when it missed no line at cache
   level [k] (L1 is level 1); iteration [warm] always is.  The
   remaining iterations run on [values] or, when the loop settles or
   the run is timing-only, not at all, unless a fault is armed: its
   ticks need every access.  In a timed run [warm] = L + 1; in a
   values-only run, whose counters and cycles stay zero, [warm] = 1.
   The product and the sum are exact while the total stays below
   2^53; a loop that would pass it simulates on.  Returns the index
   the loop continues from on [c_body]. *)
let forward st l ~warm ~values ~counts ~lo ~hi =
  let step = l.c_step in
  let trips = if hi <= lo then 0 else (hi - lo + step - 1) / step in
  if trips <= warm then lo
  else begin
    let i = ref lo in
    let iterate body =
      Array.unsafe_set st.frame l.c_depth !i;
      body st;
      i := !i + step
    in
    let before = Counters.copy st.counters in
    let k = ref 0 and steady = ref false and from = ref 0.0 in
    while not !steady do
      incr k;
      let missed = if !k < warm then Cache.misses st.cache (!k - 1) else 0 in
      from := st.cycles.(0);
      iterate l.c_body;
      steady := !k = warm || Cache.misses st.cache (!k - 1) = missed
    done;
    let times = trips - !k in
    let total = st.cycles.(0) +. (float_of_int times *. (st.cycles.(0) -. !from)) in
    if (Option.is_none values && !Trap.fault_enabled) || not (total < 0x1p53) then !i
    else begin
      repeat_counts st.counters ~before ~iterations:!k ~times;
      st.cycles.(0) <- total;
      List.iter (fun c -> ignore (Atomic.fetch_and_add c times : int)) counts;
      Option.iter
        (fun body ->
          while !i < hi do
            iterate body
          done)
        values;
      hi
    end
  end

let run_loop st l ~lo ~hi =
  let i =
    ref
      (match l.c_tail with
      | Simulate -> lo
      | Forward { warm; values; counts } -> forward st l ~warm ~values ~counts ~lo ~hi)
  in
  while !i < hi do
    Array.unsafe_set st.frame l.c_depth !i;
    l.c_body st;
    i := !i + l.c_step
  done

let run_item st = function
  | Cblock f -> f st
  | Cloop l -> run_loop st l ~lo:(l.c_lo st) ~hi:(l.c_hi st)

let rec run_items st = function
  | [] -> ()
  | item :: rest ->
      run_item st item;
      run_items st rest

(* A loop body is almost always one straight-line block; running it
   directly saves a list traversal and an item dispatch per
   iteration. *)
let seq_items items =
  match items with
  | [ Cblock f ] -> f
  | [ item ] -> fun st -> run_item st item
  | items -> fun st -> run_items st items

let first_cloop items =
  let rec go k = function
    | [] -> None
    | Cloop l :: _ -> Some (k, l)
    | Cblock _ :: rest -> go (k + 1) rest
  in
  go 0 items

let chunk_ranges ~lo ~hi ~step ~cores =
  (* Split [lo, hi) into [cores] contiguous step-aligned ranges. *)
  let trip = if hi <= lo then 0 else ((hi - lo) + step - 1) / step in
  let per = trip / cores and extra = trip mod cores in
  let ranges = ref [] in
  let start = ref lo in
  for k = 0 to cores - 1 do
    let iters = per + (if k < extra then 1 else 0) in
    let stop = !start + (iters * step) in
    ranges := (!start, min stop hi) :: !ranges;
    start := stop
  done;
  List.rev !ranges

(* -- linking helpers ----------------------------------------------- *)

type linkctx = {
  mem : Memory.t;
  machine : M.t;
  values_only : bool;
      (* Compile closures that compute values and trap but do no cache
         access, cycle charging or counter update.  Each compiler reads
         it once, as [let timed = not ctx.values_only], while it links a
         closure, never inside one. *)
  sdata : floatarray;
      (* The scalar backing store, captured after every name in the
         program has been registered (so it cannot be replaced by a
         growth mid-run). *)
  stride : int;
      (* Lanes per register slot in the flat register file; register
         [r]'s lanes start at [r * stride]. *)
}

(* Affine subscripts specialise to integer multiply-adds over the loop
   frame.  [depths] maps enclosing loop indices to frame depths,
   innermost first; an unbound variable raises [Not_found] like
   [Affine.eval] under the interpreters' index environment. *)
let resolve_terms ~depths a =
  List.map
    (fun (v, k) ->
      match List.assoc_opt v depths with
      | Some d -> (d, k)
      | None -> raise Not_found)
    (Affine.terms a)

(* [const + sum_j ks.(j) * frame.(ds.(j))], as a loop: an [Array.iter]
   closure would be allocated on every evaluation. *)
let affine_sum const ds ks (frame : int array) =
  let acc = ref const in
  for j = 0 to Array.length ds - 1 do
    acc := !acc + (Array.unsafe_get ks j * Array.unsafe_get frame (Array.unsafe_get ds j))
  done;
  !acc

(* A subscript linked against the loop frame:
   [const + sum_j ks.(j) * frame.(ds.(j))]. *)
type sub = { const : int; ds : int array; ks : int array }

let link_sub ~depths a =
  let terms = resolve_terms ~depths a in
  {
    const = Affine.const_part a;
    ds = Array.of_list (List.map fst terms);
    ks = Array.of_list (List.map snd terms);
  }

let eval_sub s frame = affine_sum s.const s.ds s.ks frame

(* A subscript with at most one loop term, as [(depth, coeff)].  No
   term reads as coefficient 0 at depth 0, which every frame has. *)
let single_term s =
  match Array.length s.ds with
  | 0 -> Some (0, 0)
  | 1 -> Some (s.ds.(0), s.ks.(0))
  | _ -> None

let compile_bound ~depths a =
  let s = link_sub ~depths a in
  fun st -> eval_sub s st.frame

(* A linked array element: backing store, geometry, and a specialised
   bounds-checked flat-index function (same checks and error messages
   as [Memory.flat_index]). *)
type elem_ref = {
  e_data : floatarray;
  e_base : int;
  e_bytes : int;
  e_flat : int array -> int;
}

(* The originating statement id is baked into the trap closure at
   compile time — zero cost on the in-bounds path.  The 1-D case and
   the rank-2 case with at most one loop term per dimension (every
   suite kernel's shape) compute, check and flatten inline in one
   closure; other shapes loop over the linked subscripts.  Checks go
   dimension by dimension, as in [Memory.flat_index]. *)
let compile_flat ?stmt ~depths ctx name idxs =
  let oob bound i = Trap.oob ?stmt ~array:name ~index:i ~bound () in
  let rank_n dims subs =
    let dims = Array.of_list dims and subs = Array.of_list subs in
    fun frame ->
      let acc = ref 0 in
      for j = 0 to Array.length subs - 1 do
        let i = eval_sub (Array.unsafe_get subs j) frame in
        let d = Array.unsafe_get dims j in
        if i < 0 || i >= d then oob d i;
        acc := (!acc * d) + i
      done;
      !acc
  in
  match (Memory.dims ctx.mem name, idxs) with
  | [ d0 ], [ ix ] -> (
      let s = link_sub ~depths ix in
      let c = s.const in
      match (s.ds, s.ks) with
      | [||], _ -> if c < 0 || c >= d0 then fun _ -> oob d0 c else fun _ -> c
      | [| d |], [| k |] ->
          fun (frame : int array) ->
            let i = c + (k * Array.unsafe_get frame d) in
            if i < 0 || i >= d0 then oob d0 i;
            i
      | _ -> rank_n [ d0 ] [ s ])
  | [ d0; d1 ], [ ix0; ix1 ] -> (
      let s0 = link_sub ~depths ix0 and s1 = link_sub ~depths ix1 in
      match (single_term s0, single_term s1) with
      | Some (f0, k0), Some (f1, k1) ->
          let c0 = s0.const and c1 = s1.const in
          fun frame ->
            let i0 = c0 + (k0 * Array.unsafe_get frame f0) in
            if i0 < 0 || i0 >= d0 then oob d0 i0;
            let i1 = c1 + (k1 * Array.unsafe_get frame f1) in
            if i1 < 0 || i1 >= d1 then oob d1 i1;
            (i0 * d1) + i1
      | _ -> rank_n [ d0; d1 ] [ s0; s1 ])
  | dims, idxs when List.compare_lengths dims idxs = 0 ->
      rank_n dims (List.map (link_sub ~depths) idxs)
  | _ -> fun _ -> Trap.rank_mismatch ?stmt ~array:name ()

let link_elem ?stmt ctx ~depths op =
  match op with
  | Operand.Elem (b, idxs) ->
      {
        e_data = Memory.array_values ctx.mem b;
        e_base = Memory.array_base ctx.mem b;
        e_bytes = Memory.elem_bytes ctx.mem b;
        e_flat = compile_flat ?stmt ~depths ctx b idxs;
      }
  | Operand.Const _ | Operand.Scalar _ ->
      invalid_arg "Engine: expected an array element operand"

(* A scalar name used as a value: a loop index reads the induction
   variable (innermost binding first, as the interpreters' assoc-list
   lookup), otherwise the flat scalar slot. *)
type scalar_src = Frame of int | Slot of int

let link_scalar_read ctx ~depths v =
  match List.assoc_opt v depths with
  | Some d -> Frame d
  | None -> Slot (Memory.scalar_slot ctx.mem v)

(* -- scalar statements --------------------------------------------- *)

(* Mirrors [Scalar_exec.exec_stmt]: loads charge as the expression
   evaluates (right operand before left, as pinned by [Expr.eval]),
   then ALU cycles, then the store.  A compiled operand or expression
   writes its value into [st.tmp] at [dst]. *)
let compile_operand_read ?stmt ctx ~depths ~dst op =
  let timed = not ctx.values_only in
  match op with
  | Operand.Const c -> fun st -> FA.unsafe_set st.tmp dst c
  | Operand.Scalar v -> (
      match link_scalar_read ctx ~depths v with
      | Frame d ->
          fun st -> FA.unsafe_set st.tmp dst (float_of_int (Array.unsafe_get st.frame d))
      | Slot slot -> fun st -> FA.unsafe_set st.tmp dst (FA.unsafe_get st.sdata slot))
  | Operand.Elem (name, idxs) -> (
      let { e_data; e_base; e_bytes = bytes; e_flat } = link_elem ?stmt ctx ~depths op in
      let issue = float_of_int ctx.machine.M.costs.M.load_issue in
      let generic st =
        let fl = e_flat st.frame in
        if timed then begin
          st.counters.Counters.scalar_loads <- st.counters.Counters.scalar_loads + 1;
          Cache.charge st.cache st.cycles ~issue ~addr:(e_base + (fl * bytes)) ~bytes
        end
        else tick ();
        FA.unsafe_set st.tmp dst (FA.unsafe_get e_data fl)
      in
      (* The dominant shape — 1-D array, single-variable subscript —
         fuses the index multiply-add and its bounds check straight
         into the read closure (no inner closure call per load). *)
      match (Memory.dims ctx.mem name, idxs) with
      | [ d0 ], [ ix ] -> (
          match resolve_terms ~depths ix with
          | [ (d, k) ] ->
              let const = Affine.const_part ix in
              let oob i = Trap.oob ?stmt ~array:name ~index:i ~bound:d0 () in
              fun st ->
                let i = const + (k * Array.unsafe_get st.frame d) in
                if i < 0 || i >= d0 then oob i;
                if timed then begin
                  st.counters.Counters.scalar_loads <- st.counters.Counters.scalar_loads + 1;
                  Cache.charge st.cache st.cycles ~issue ~addr:(e_base + (i * bytes)) ~bytes
                end
                else tick ();
                FA.unsafe_set st.tmp dst (FA.unsafe_get e_data i)
          | _ -> generic)
      | _ -> generic)

(* Binary nodes dispatch on the operator at compile time so the hot
   closure applies the float primitive directly instead of calling
   through a generic [float -> float -> float] closure.  The right
   operand evaluates first (as pinned by [Expr.eval]) into [dst], then
   the left into [dst + 1], which leaves the right's value alone. *)
let rec compile_expr ?stmt ctx ~depths ~dst e =
  match e with
  | Expr.Leaf op -> compile_operand_read ?stmt ctx ~depths ~dst op
  | Expr.Un (u, inner) -> (
      let f = compile_expr ?stmt ctx ~depths ~dst inner in
      match u with
      | Types.Neg ->
          fun st ->
            f st;
            FA.unsafe_set st.tmp dst (-.FA.unsafe_get st.tmp dst)
      | Types.Abs ->
          fun st ->
            f st;
            FA.unsafe_set st.tmp dst (Float.abs (FA.unsafe_get st.tmp dst))
      | Types.Sqrt ->
          fun st ->
            f st;
            FA.unsafe_set st.tmp dst (Float.sqrt (FA.unsafe_get st.tmp dst)))
  | Expr.Bin (b, l, r) -> (
      let left = dst + 1 in
      let fl = compile_expr ?stmt ctx ~depths ~dst:left l in
      let fr = compile_expr ?stmt ctx ~depths ~dst r in
      match b with
      | Types.Add ->
          fun st ->
            fr st;
            fl st;
            let t = st.tmp in
            FA.unsafe_set t dst (FA.unsafe_get t left +. FA.unsafe_get t dst)
      | Types.Sub ->
          fun st ->
            fr st;
            fl st;
            let t = st.tmp in
            FA.unsafe_set t dst (FA.unsafe_get t left -. FA.unsafe_get t dst)
      | Types.Mul ->
          fun st ->
            fr st;
            fl st;
            let t = st.tmp in
            FA.unsafe_set t dst (FA.unsafe_get t left *. FA.unsafe_get t dst)
      | Types.Div ->
          fun st ->
            fr st;
            fl st;
            let t = st.tmp in
            FA.unsafe_set t dst (FA.unsafe_get t left /. FA.unsafe_get t dst)
      | Types.Min ->
          fun st ->
            fr st;
            fl st;
            let t = st.tmp in
            FA.unsafe_set t dst (Float.min (FA.unsafe_get t left) (FA.unsafe_get t dst))
      | Types.Max ->
          fun st ->
            fr st;
            fl st;
            let t = st.tmp in
            FA.unsafe_set t dst (Float.max (FA.unsafe_get t left) (FA.unsafe_get t dst)))

(* The ALU cycles of a scalar statement's right-hand side. *)
let stmt_op_cycles (costs : M.op_costs) (s : Stmt.t) =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Either.Left Types.Div -> costs.M.divide
      | Either.Right Types.Sqrt -> costs.M.square_root
      | Either.Left _ -> costs.M.scalar_op
      | Either.Right _ -> costs.M.scalar_op)
    0
    (Expr.operators s.Stmt.rhs)

let compile_stmt ctx ~depths (s : Stmt.t) =
  let timed = not ctx.values_only in
  let costs = ctx.machine.M.costs in
  let stmt = s.Stmt.id in
  let rhs = compile_expr ~stmt ctx ~depths ~dst:0 s.Stmt.rhs in
  let nops = Stmt.op_count s in
  let op_cycles = float_of_int (stmt_op_cycles costs s) in
  match s.Stmt.lhs with
  | Operand.Scalar v ->
      let slot = Memory.scalar_slot ctx.mem v in
      fun st ->
        rhs st;
        if timed then begin
          st.counters.Counters.scalar_ops <- st.counters.Counters.scalar_ops + nops;
          charge st op_cycles
        end;
        FA.unsafe_set st.sdata slot (FA.unsafe_get st.tmp 0)
  | Operand.Elem (name, idxs) as op -> (
      let { e_data; e_base; e_bytes = bytes; e_flat } = link_elem ~stmt ctx ~depths op in
      let issue = float_of_int costs.M.store_issue in
      let generic st =
        rhs st;
        let value = FA.unsafe_get st.tmp 0 in
        if timed then begin
          st.counters.Counters.scalar_ops <- st.counters.Counters.scalar_ops + nops;
          charge st op_cycles
        end;
        let fl = e_flat st.frame in
        if timed then begin
          st.counters.Counters.scalar_stores <- st.counters.Counters.scalar_stores + 1;
          Cache.charge st.cache st.cycles ~issue ~addr:(e_base + (fl * bytes)) ~bytes
        end
        else tick ();
        FA.unsafe_set e_data fl value
      in
      (* Same fusion as [compile_operand_read]: 1-D single-variable
         stores skip the flat-index closure. *)
      match (Memory.dims ctx.mem name, idxs) with
      | [ d0 ], [ ix ] -> (
          match resolve_terms ~depths ix with
          | [ (d, k) ] ->
              let const = Affine.const_part ix in
              let oob i = Trap.oob ~stmt ~array:name ~index:i ~bound:d0 () in
              fun st ->
                rhs st;
                let value = FA.unsafe_get st.tmp 0 in
                if timed then begin
                  st.counters.Counters.scalar_ops <- st.counters.Counters.scalar_ops + nops;
                  charge st op_cycles
                end;
                let i = const + (k * Array.unsafe_get st.frame d) in
                if i < 0 || i >= d0 then oob i;
                if timed then begin
                  st.counters.Counters.scalar_stores <- st.counters.Counters.scalar_stores + 1;
                  Cache.charge st.cache st.cycles ~issue ~addr:(e_base + (i * bytes)) ~bytes
                end
                else tick ();
                FA.unsafe_set e_data i value
          | _ -> generic)
      | _ -> generic)
  | Operand.Const _ -> assert false

let run_block fs st =
  for k = 0 to Array.length fs - 1 do
    (Array.unsafe_get fs k) st
  done

(* -- vector instructions ------------------------------------------- *)

(* A lane source writes its value straight into register lane [off]
   of [st.vregs]; a memory source counts as a pack load. *)
let link_lane_src ctx ~depths ~off (src : Visa.lane_src) =
  let timed = not ctx.values_only in
  match src with
  | Visa.Imm f -> fun st -> FA.unsafe_set st.vregs off f
  | Visa.Reg v -> (
      match link_scalar_read ctx ~depths v with
      | Frame d ->
          fun st -> FA.unsafe_set st.vregs off (float_of_int (Array.unsafe_get st.frame d))
      | Slot slot -> fun st -> FA.unsafe_set st.vregs off (FA.unsafe_get st.sdata slot))
  | Visa.Mem op ->
      let { e_data; e_base; e_bytes; e_flat } = link_elem ctx ~depths op in
      let issue = float_of_int ctx.machine.M.costs.M.load_issue in
      fun st ->
        let fl = e_flat st.frame in
        if timed then begin
          st.counters.Counters.pack_loads <- st.counters.Counters.pack_loads + 1;
          Cache.charge st.cache st.cycles ~issue ~addr:(e_base + (fl * e_bytes)) ~bytes:e_bytes
        end
        else tick ();
        FA.unsafe_set st.vregs off (FA.unsafe_get e_data fl)

(* Lane 0's flat index of an [n]-lane pack contiguous along the last
   dimension, [row * cols + col], after one range check covering every
   lane.  A failing check replays the generic path's per-lane,
   per-dimension checks, so the trap names the same lane and
   dimension.  A rank-1 array is one row: [row] is [None]. *)
let contig_index ~name ~n ~rows ~cols row col =
  let replay r c =
    for k = 0 to n - 1 do
      if r < 0 || r >= rows then Trap.oob ~array:name ~index:r ~bound:rows ();
      let i = c + k in
      if i < 0 || i >= cols then Trap.oob ~array:name ~index:i ~bound:cols ()
    done
  in
  let generic frame =
    let r = match row with Some s -> eval_sub s frame | None -> 0 in
    let c = eval_sub col frame in
    if r < 0 || r >= rows || c < 0 || c + n > cols then replay r c;
    (r * cols) + c
  in
  match (row, single_term col) with
  | None, Some (fc, kc) ->
      let cc = col.const in
      fun (frame : int array) ->
        let c = cc + (kc * Array.unsafe_get frame fc) in
        if c < 0 || c + n > cols then replay 0 c;
        c
  | Some s, Some (fc, kc) -> (
      match single_term s with
      | Some (fr, kr) ->
          let cr = s.const and cc = col.const in
          fun frame ->
            let r = cr + (kr * Array.unsafe_get frame fr) in
            let c = cc + (kc * Array.unsafe_get frame fc) in
            if r < 0 || r >= rows || c < 0 || c + n > cols then replay r c;
            (r * cols) + c
      | None -> generic)
  | _, None -> generic

(* The lowering pass packs memory lanes that are provably adjacent, so
   the overwhelmingly common vload/vstore shape is a pack contiguous
   along the last dimension of a rank-1 or rank-2 array: every lane
   names the same array with the same leading subscripts, and lane k's
   last subscript is lane 0's plus k.  When the subscripts prove that
   at compile time ([Affine.diff_const]), the whole superword access
   collapses to one index evaluation, one range check and a flat copy
   — no per-lane closure calls.  Returns the array name and
   [contig_index]'s function. *)
let contig ctx ~depths elems =
  match elems with
  | Operand.Elem (name, idxs0) :: _ -> (
      let rec shifted k idxs idxs0 =
        match (idxs, idxs0) with
        | [ ix ], [ ix0 ] -> Affine.diff_const ix ix0 = Some k
        | ix :: idxs, ix0 :: idxs0 -> Affine.diff_const ix ix0 = Some 0 && shifted k idxs idxs0
        | _ -> false
      in
      let rec lanes k = function
        | [] -> true
        | Operand.Elem (name', idxs) :: rest ->
            String.equal name' name && shifted k idxs idxs0 && lanes (k + 1) rest
        | (Operand.Const _ | Operand.Scalar _) :: _ -> false
      in
      let n = List.length elems in
      if not (lanes 0 elems) then None
      else
        match (Memory.dims ctx.mem name, idxs0) with
        | [ cols ], [ ix ] ->
            Some (name, contig_index ~name ~n ~rows:1 ~cols None (link_sub ~depths ix))
        | [ rows; cols ], [ ixr; ix ] ->
            let row = Some (link_sub ~depths ixr) in
            Some (name, contig_index ~name ~n ~rows ~cols row (link_sub ~depths ix))
        | _ -> None)
  | _ -> None

(* The lane count of an elementwise [Vbin] over [a] and [b], or of a
   [Vun] over [a] (passed as both), after its count and cycle charge:
   a lane of [a] past [b]'s width is an error. *)
let[@inline] vop_lanes st ~timed ~c a b =
  let na = vreg_lanes st a in
  let nb = vreg_lanes st b in
  if timed then begin
    st.counters.Counters.vector_ops <- st.counters.Counters.vector_ops + 1;
    charge st c
  end;
  if nb < na then invalid_arg "index out of bounds";
  na

(* Each instruction compiles to one closure, whatever the mode.  The
   mode is a constant of the link context, bound once per closure as
   [timed]: a timed closure counts events, charges cycles and simulates
   the cache; a values-only one makes the same lane-count and bounds
   checks and memory writes in the same order, and ticks ([tick]) where
   the timed one calls [Cache.charge]. *)
let compile_instr ctx ~depths instr =
  let costs = ctx.machine.M.costs in
  let stride = ctx.stride in
  let timed = not ctx.values_only in
  match instr with
  | Visa.Sstmt s -> compile_stmt ctx ~depths s
  | Visa.Vload { dst; elems } -> (
      let n = List.length elems in
      let dst_off = dst * stride in
      let issue = float_of_int costs.M.load_issue in
      match contig ctx ~depths elems with
      | Some (name, f0) ->
          let data = Memory.array_values ctx.mem name in
          let base = Memory.array_base ctx.mem name in
          let bytes = Memory.elem_bytes ctx.mem name in
          let bytes_total = bytes * n in
          fun st ->
            let i0 = f0 st.frame in
            let vregs = st.vregs in
            for k = 0 to n - 1 do
              FA.unsafe_set vregs (dst_off + k) (FA.unsafe_get data (i0 + k))
            done;
            Array.unsafe_set st.vlanes dst n;
            if timed then begin
              st.counters.Counters.vector_loads <- st.counters.Counters.vector_loads + 1;
              Cache.charge st.cache st.cycles ~issue ~addr:(base + (i0 * bytes))
                ~bytes:bytes_total
            end
            else tick ()
      | None ->
          let es = Array.of_list (List.map (link_elem ctx ~depths) elems) in
          let e0 = es.(0) in
          let bytes_total = e0.e_bytes * n in
          fun st ->
            let frame = st.frame in
            let flats = st.iscratch in
            for k = 0 to n - 1 do
              Array.unsafe_set flats k ((Array.unsafe_get es k).e_flat frame)
            done;
            let vregs = st.vregs in
            for k = 0 to n - 1 do
              FA.unsafe_set vregs (dst_off + k)
                (FA.unsafe_get (Array.unsafe_get es k).e_data
                   (Array.unsafe_get flats k))
            done;
            Array.unsafe_set st.vlanes dst n;
            if timed then begin
              st.counters.Counters.vector_loads <- st.counters.Counters.vector_loads + 1;
              Cache.charge st.cache st.cycles ~issue
                ~addr:(e0.e_base + (Array.unsafe_get flats 0 * e0.e_bytes))
                ~bytes:bytes_total
            end
            else tick ())
  | Visa.Vstore { src; elems } -> (
      let n = List.length elems in
      let src_off = src * stride in
      let issue = float_of_int costs.M.store_issue in
      match contig ctx ~depths elems with
      | Some (name, f0) ->
          let data = Memory.array_values ctx.mem name in
          let base = Memory.array_base ctx.mem name in
          let bytes = Memory.elem_bytes ctx.mem name in
          let bytes_total = bytes * n in
          fun st ->
            let ls = vreg_lanes st src in
            let i0 = f0 st.frame in
            let vregs = st.vregs in
            for k = 0 to n - 1 do
              if k >= ls then invalid_arg "index out of bounds";
              FA.unsafe_set data (i0 + k) (FA.unsafe_get vregs (src_off + k))
            done;
            if timed then begin
              st.counters.Counters.vector_stores <- st.counters.Counters.vector_stores + 1;
              Cache.charge st.cache st.cycles ~issue ~addr:(base + (i0 * bytes))
                ~bytes:bytes_total
            end
            else tick ()
      | None ->
          let es = Array.of_list (List.map (link_elem ctx ~depths) elems) in
          let e0 = es.(0) in
          let bytes_total = e0.e_bytes * n in
          fun st ->
            let ls = vreg_lanes st src in
            let frame = st.frame in
            let flats = st.iscratch in
            for k = 0 to n - 1 do
              Array.unsafe_set flats k ((Array.unsafe_get es k).e_flat frame)
            done;
            let vregs = st.vregs in
            for k = 0 to n - 1 do
              if k >= ls then invalid_arg "index out of bounds";
              FA.unsafe_set
                (Array.unsafe_get es k).e_data
                (Array.unsafe_get flats k)
                (FA.unsafe_get vregs (src_off + k))
            done;
            if timed then begin
              st.counters.Counters.vector_stores <- st.counters.Counters.vector_stores + 1;
              Cache.charge st.cache st.cycles ~issue
                ~addr:(e0.e_base + (Array.unsafe_get flats 0 * e0.e_bytes))
                ~bytes:bytes_total
            end
            else tick ())
  | Visa.Vgather { dst; srcs } ->
      let dst_off = dst * stride in
      (* Lane sources read memory and scalars, never registers, so
         filling [dst] as they evaluate cannot alias an operand. *)
      let fns =
        Array.of_list
          (List.mapi (fun k src -> link_lane_src ctx ~depths ~off:(dst_off + k) src) srcs)
      in
      let n = Array.length fns in
      let insert_c = float_of_int (n * costs.M.insert) in
      fun st ->
        for k = 0 to n - 1 do
          (Array.unsafe_get fns k) st
        done;
        if timed then begin
          st.counters.Counters.inserts <- st.counters.Counters.inserts + n;
          charge st insert_c
        end;
        Array.unsafe_set st.vlanes dst n
  | Visa.Vunpack { src; dsts } ->
      let extract_c = float_of_int costs.M.extract in
      let src_off = src * stride in
      let fns =
        List.mapi
          (fun i d ->
            match d with
            | None -> None
            | Some (Visa.To_reg v) ->
                let slot = Memory.scalar_slot ctx.mem v in
                Some
                  (fun st n ->
                    if timed then begin
                      st.counters.Counters.extracts <- st.counters.Counters.extracts + 1;
                      charge st extract_c
                    end;
                    if i >= n then invalid_arg "index out of bounds";
                    FA.unsafe_set st.sdata slot (FA.unsafe_get st.vregs (src_off + i)))
            | Some (Visa.To_mem op) ->
                let { e_data; e_base; e_bytes; e_flat } = link_elem ctx ~depths op in
                let issue = float_of_int costs.M.store_issue in
                Some
                  (fun st n ->
                    if timed then begin
                      st.counters.Counters.extracts <- st.counters.Counters.extracts + 1;
                      charge st extract_c
                    end;
                    let fl = e_flat st.frame in
                    if timed then begin
                      st.counters.Counters.pack_stores <- st.counters.Counters.pack_stores + 1;
                      Cache.charge st.cache st.cycles ~issue
                        ~addr:(e_base + (fl * e_bytes))
                        ~bytes:e_bytes
                    end
                    else tick ();
                    if i >= n then invalid_arg "index out of bounds";
                    FA.unsafe_set e_data fl (FA.unsafe_get st.vregs (src_off + i))))
          dsts
        |> List.filter_map Fun.id |> Array.of_list
      in
      fun st ->
        let n = vreg_lanes st src in
        for k = 0 to Array.length fns - 1 do
          (Array.unsafe_get fns k) st n
        done
  | Visa.Vbroadcast { dst; src; lanes } ->
      let dst_off = dst * stride in
      (* The source fills lane 0, which the loop then copies. *)
      let value = link_lane_src ctx ~depths ~off:dst_off src in
      let broadcast_c = float_of_int costs.M.broadcast in
      fun st ->
        value st;
        if timed then begin
          st.counters.Counters.broadcasts <- st.counters.Counters.broadcasts + 1;
          charge st broadcast_c
        end;
        let vregs = st.vregs in
        let v = FA.unsafe_get vregs dst_off in
        for k = 1 to lanes - 1 do
          FA.unsafe_set vregs (dst_off + k) v
        done;
        Array.unsafe_set st.vlanes dst lanes
  | Visa.Vpermute { dst; src; sel } ->
      let sel = Array.copy sel in
      let nsel = Array.length sel in
      let permute_c = float_of_int costs.M.permute in
      let dst_off = dst * stride and src_off = src * stride in
      (* Staged through scratch: [dst] may be [src]. *)
      fun st ->
        let n = vreg_lanes st src in
        if timed then begin
          st.counters.Counters.permutes <- st.counters.Counters.permutes + 1;
          charge st permute_c
        end;
        let vregs = st.vregs and buf = st.fscratch in
        for k = 0 to nsel - 1 do
          let s = Array.unsafe_get sel k in
          if s < 0 || s >= n then invalid_arg "index out of bounds";
          FA.unsafe_set buf k (FA.unsafe_get vregs (src_off + s))
        done;
        FA.blit buf 0 vregs dst_off nsel;
        Array.unsafe_set st.vlanes dst nsel
  | Visa.Vshuffle2 { dst; a; b; sel } ->
      let nsel = Array.length sel in
      let side = Array.map fst sel and lane = Array.map snd sel in
      let permute_c = float_of_int costs.M.permute in
      let dst_off = dst * stride in
      let a_off = a * stride and b_off = b * stride in
      fun st ->
        let na = vreg_lanes st a and nb = vreg_lanes st b in
        if timed then begin
          st.counters.Counters.permutes <- st.counters.Counters.permutes + 1;
          charge st permute_c
        end;
        let vregs = st.vregs and buf = st.fscratch in
        for k = 0 to nsel - 1 do
          let l = Array.unsafe_get lane k in
          if Array.unsafe_get side k = 0 then begin
            if l < 0 || l >= na then invalid_arg "index out of bounds";
            FA.unsafe_set buf k (FA.unsafe_get vregs (a_off + l))
          end
          else begin
            if l < 0 || l >= nb then invalid_arg "index out of bounds";
            FA.unsafe_set buf k (FA.unsafe_get vregs (b_off + l))
          end
        done;
        FA.blit buf 0 vregs dst_off nsel;
        Array.unsafe_set st.vlanes dst nsel
  | Visa.Vbin { dst; op; a; b } -> (
      let c =
        float_of_int
          (match op with Types.Div -> costs.M.divide | _ -> costs.M.vector_op)
      in
      let dst_off = dst * stride in
      let a_off = a * stride and b_off = b * stride in
      (* The update is elementwise (lane [i] is read before written),
         so writing [dst] in place is safe even when it aliases an
         operand.  Dispatching on the operator here keeps the float
         primitive direct in the lane loop. *)
      match op with
      | Types.Add ->
          fun st ->
            let na = vop_lanes st ~timed ~c a b in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (FA.unsafe_get vregs (a_off + i) +. FA.unsafe_get vregs (b_off + i))
            done;
            Array.unsafe_set st.vlanes dst na
      | Types.Sub ->
          fun st ->
            let na = vop_lanes st ~timed ~c a b in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (FA.unsafe_get vregs (a_off + i) -. FA.unsafe_get vregs (b_off + i))
            done;
            Array.unsafe_set st.vlanes dst na
      | Types.Mul ->
          fun st ->
            let na = vop_lanes st ~timed ~c a b in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (FA.unsafe_get vregs (a_off + i) *. FA.unsafe_get vregs (b_off + i))
            done;
            Array.unsafe_set st.vlanes dst na
      | Types.Div ->
          fun st ->
            let na = vop_lanes st ~timed ~c a b in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (FA.unsafe_get vregs (a_off + i) /. FA.unsafe_get vregs (b_off + i))
            done;
            Array.unsafe_set st.vlanes dst na
      | Types.Min ->
          fun st ->
            let na = vop_lanes st ~timed ~c a b in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (Float.min
                   (FA.unsafe_get vregs (a_off + i))
                   (FA.unsafe_get vregs (b_off + i)))
            done;
            Array.unsafe_set st.vlanes dst na
      | Types.Max ->
          fun st ->
            let na = vop_lanes st ~timed ~c a b in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (Float.max
                   (FA.unsafe_get vregs (a_off + i))
                   (FA.unsafe_get vregs (b_off + i)))
            done;
            Array.unsafe_set st.vlanes dst na)
  | Visa.Vun { dst; op; a } -> (
      let c =
        float_of_int
          (match op with
          | Types.Sqrt -> costs.M.square_root
          | Types.Neg | Types.Abs -> costs.M.vector_op)
      in
      let dst_off = dst * stride and a_off = a * stride in
      match op with
      | Types.Neg ->
          fun st ->
            let na = vop_lanes st ~timed ~c a a in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i) (-.FA.unsafe_get vregs (a_off + i))
            done;
            Array.unsafe_set st.vlanes dst na
      | Types.Abs ->
          fun st ->
            let na = vop_lanes st ~timed ~c a a in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (Float.abs (FA.unsafe_get vregs (a_off + i)))
            done;
            Array.unsafe_set st.vlanes dst na
      | Types.Sqrt ->
          fun st ->
            let na = vop_lanes st ~timed ~c a a in
            let vregs = st.vregs in
            for i = 0 to na - 1 do
              FA.unsafe_set vregs (dst_off + i)
                (Float.sqrt (FA.unsafe_get vregs (a_off + i)))
            done;
            Array.unsafe_set st.vlanes dst na)
  | Visa.Vspill { src; slot } ->
      let addr = Memory.spill_addr ctx.mem ~slot in
      let issue = float_of_int costs.M.store_issue in
      let src_off = src * stride and slot_off = slot * stride in
      (* Spills live in the *state's* arena, not in shared [Memory]:
         each simulated core owns its spilled values, which is what
         the sequential per-core execution means and what lets domains
         run cores concurrently without racing on slots. *)
      fun st ->
        let n = vreg_lanes st src in
        FA.blit st.vregs src_off st.spills slot_off n;
        Array.unsafe_set st.spill_ln slot n;
        if timed then begin
          st.counters.Counters.vector_stores <- st.counters.Counters.vector_stores + 1;
          Cache.charge st.cache st.cycles ~issue ~addr ~bytes:(8 * n)
        end
        else tick ()
  | Visa.Vreload { dst; slot } ->
      let addr = Memory.spill_addr ctx.mem ~slot in
      let issue = float_of_int costs.M.load_issue in
      let dst_off = dst * stride and slot_off = slot * stride in
      fun st ->
        let n = Array.unsafe_get st.spill_ln slot in
        if n < 0 then Trap.unset_spill ~slot ();
        FA.blit st.spills slot_off st.vregs dst_off n;
        if timed then begin
          st.counters.Counters.vector_loads <- st.counters.Counters.vector_loads + 1;
          Cache.charge st.cache st.cycles ~issue ~addr ~bytes:(8 * n)
        end
        else tick ();
        Array.unsafe_set st.vlanes dst n
  | Visa.Vload_scalars { dst; sources } ->
      let slots = Array.of_list (List.map (Memory.scalar_slot ctx.mem) sources) in
      let n = Array.length slots in
      let bytes = 8 * n in
      let issue = float_of_int costs.M.load_issue in
      let dst_off = dst * stride in
      let addr0 =
        try Ok (Memory.scalar_addr ctx.mem (List.hd sources))
        with Invalid_argument msg -> Error msg
      in
      fun st ->
        let vregs = st.vregs and data = st.sdata in
        for k = 0 to n - 1 do
          FA.unsafe_set vregs (dst_off + k)
            (FA.unsafe_get data (Array.unsafe_get slots k))
        done;
        if timed then
          st.counters.Counters.vector_loads <- st.counters.Counters.vector_loads + 1;
        (match addr0 with
        | Ok addr -> if timed then Cache.charge st.cache st.cycles ~issue ~addr ~bytes else tick ()
        | Error msg -> invalid_arg msg);
        Array.unsafe_set st.vlanes dst n
  | Visa.Vstore_scalars { src; targets } -> (
      let slots = Array.of_list (List.map (Memory.scalar_slot ctx.mem) targets) in
      let n = Array.length slots in
      let bytes = 8 * n in
      let issue = float_of_int costs.M.store_issue in
      let src_off = src * stride in
      let addr0 =
        try Ok (Memory.scalar_addr ctx.mem (List.hd targets))
        with Invalid_argument msg -> Error msg
      in
      fun st ->
        let ls = vreg_lanes st src in
        let vregs = st.vregs and data = st.sdata in
        for k = 0 to n - 1 do
          if k >= ls then invalid_arg "index out of bounds";
          FA.unsafe_set data (Array.unsafe_get slots k)
            (FA.unsafe_get vregs (src_off + k))
        done;
        if timed then
          st.counters.Counters.vector_stores <- st.counters.Counters.vector_stores + 1;
        match addr0 with
        | Ok addr -> if timed then Cache.charge st.cache st.cycles ~issue ~addr ~bytes else tick ()
        | Error msg -> invalid_arg msg)

(* The loop structure of [items], each [Visa.Block] compiled by
   [block] in pre-order and each loop's [c_tail] chosen by [tail] once
   its body is linked. *)
let rec link_items ~block ~tail ~depths ~depth items =
  List.map
    (function
      | Visa.Block instrs -> Cblock (block ~depths instrs)
      | Visa.Loop l ->
          let c_lo = compile_bound ~depths l.Visa.lo in
          let c_hi = compile_bound ~depths l.Visa.hi in
          let depths = (l.Visa.index, depth) :: depths in
          let body = link_items ~block ~tail ~depths ~depth:(depth + 1) l.Visa.body in
          Cloop
            {
              c_depth = depth;
              c_step = l.Visa.step;
              c_lo;
              c_hi;
              c_const_bounds =
                (match (Affine.to_const l.Visa.lo, Affine.to_const l.Visa.hi) with
                | Some lo, Some hi -> Some (lo, hi)
                | _, _ -> None);
              c_body = seq_items body;
              c_tail = tail ~depths ~depth:(depth + 1) l;
            })
    items

let simulate ~depths:_ ~depth:_ _ = Simulate

(* What one iteration of a loop over [v] whose body is [items] does to
   the next, decided from the body's def/use ({!Visa.fold_locs} for the
   subscripts, {!Visa.first_reads} for the rest).  [Varies]: [v]
   occurs in a subscript or an inner loop bound.  [Replays]: it
   does not, so every iteration makes the same accesses at the same
   addresses.  [Settles]: besides, the state one iteration leaves is a
   fixed point of the body, which holds when
   - [v] appears nowhere else either: a value read from it
     ([Operand.Scalar v], a [Reg v] lane source, [Vload_scalars])
     differs in every iteration though no address does;
   - no location the body reads before writing it is written in it,
     where an array counts as one location: no array the body writes
     is read in it, and every scalar, vector register and spill slot
     it writes is written before it is read.
   Every value an iteration computes then depends only on locations
   the body never writes and on what the iteration wrote before, so
   the second iteration writes exactly what the first wrote, at the
   same addresses, and raises nothing the first did not. *)
type repeat = Varies | Replays | Settles

let repeat v items =
  let mentions a = Affine.coeff a v <> 0 in
  let subscripted =
    Visa.fold_locs (fun acc ~write:_ -> function
      | Visa.Elem (_, idxs) -> acc || List.exists mentions idxs
      | Visa.Scalar _ | Visa.Vreg _ | Visa.Slot _ -> acc)
  in
  let rec varies items =
    List.exists
      (function
        | Visa.Block instrs -> List.exists (subscripted false) instrs
        | Visa.Loop l -> mentions l.Visa.lo || mentions l.Visa.hi || varies l.Visa.body)
      items
  in
  if varies items then Varies
  else
    let { Visa.early; written } = Visa.first_reads items in
    let index = Visa.Scalar v in
    let rewritten loc = loc = index || Visa.Locs.mem loc written in
    if Visa.Locs.mem index written || List.exists rewritten early then Replays else Settles

(* Whether a loop's constant bounds give it at most [warm] trips. *)
let short ~warm (l : Visa.vloop) =
  match (Affine.to_const l.Visa.lo, Affine.to_const l.Visa.hi) with
  | Some lo, Some hi -> hi - lo <= warm * l.Visa.step
  | _ -> false

(* A timed or timing-only run's loop tails: [Forward] a loop that
   replays and may run more than its warm-up, [Simulate] others.  The
   iterations past the warm-up run on [values] (a compile of the body)
   unless the loop settles; without [values] (a timing-only run) they
   are skipped. *)
let replay_tail ~machine ~values ~depths ~depth (l : Visa.vloop) =
  let warm = Cache.level_count machine + 1 in
  if short ~warm l then Simulate
  else
    match (repeat l.Visa.index l.Visa.body, values) with
    | Varies, _ -> Simulate
    | (Replays | Settles), None -> Forward { warm; values = None; counts = [ forwarded ] }
    | Settles, Some _ -> Forward { warm; values = None; counts = [ forwarded; settled ] }
    | Replays, Some f ->
        Forward { warm; values = Some (f ~depths ~depth l.Visa.body); counts = [ forwarded ] }

(* A values-only run's loop tails: a loop that settles runs one
   iteration, and its others are skipped. *)
let settle_tail ~depths:_ ~depth:_ (l : Visa.vloop) =
  if (not (short ~warm:1 l)) && repeat l.Visa.index l.Visa.body = Settles then
    Forward { warm = 1; values = None; counts = [ settled ] }
  else Simulate

(* One [Visa.Block]'s closure.  [keys] selects profiling keys for
   vector instructions: [`Setup] charges everything to the setup key;
   [`Origins q] pops one origin array per [Visa.Block] from [q] in
   pre-order (the order [Lower] records them), falling back to opcode
   keys when the queue runs dry or an origin array is short. *)
let compile_block ?prof ?(keys = `Origins (ref [])) ctx ~depths instrs =
  let okeys =
    match keys with
    | `Setup -> None
    | `Origins q -> (
        match !q with
        | arr :: rest ->
            q := rest;
            Some arr
        | [] -> None)
  in
  let key i instr =
    match keys with
    | `Setup -> Profile.Setup
    | `Origins _ -> (
        match okeys with
        | Some arr when i < Array.length arr -> arr.(i)
        | _ -> fallback_key instr)
  in
  run_block
    (Array.of_list
       (List.mapi
          (fun i instr -> wrap_profile prof (key i instr) (compile_instr ctx ~depths instr))
          instrs))

(* A one-core timed run's loop tails: a loop that replays but does not
   settle runs its iterations past the warm-up on a values-only compile
   of its body, whose own loops settle as a values-only run's do. *)
let values_tail ctx =
  let vctx = { ctx with values_only = true } in
  let values ~depths ~depth body =
    seq_items (link_items ~block:(compile_block vctx) ~tail:settle_tail ~depths ~depth body)
  in
  replay_tail ~machine:ctx.machine ~values:(Some values)

let compile_items ?prof ?keys ~tail ctx items =
  link_items ~block:(compile_block ?prof ?keys ctx) ~tail ~depths:[] ~depth:0 items

(* -- program geometry ---------------------------------------------- *)

let rec prog_depth items =
  List.fold_left
    (fun acc item ->
      match item with
      | Visa.Block _ -> acc
      | Visa.Loop l -> max acc (1 + prog_depth l.Visa.body))
    0 items

(* One more than the largest register and spill slot [p] names, and
   every scalar name it mentions (registered with [Memory] before the
   backing store is captured: a later registration could replace the
   array under the closures). *)
let program_footprint (p : Visa.program) =
  let vregs = ref (-1) and slots = ref (-1) and names = ref [] in
  let note () ~write:_ = function
    | Visa.Elem _ -> ()
    | Visa.Scalar v -> names := v :: !names
    | Visa.Vreg r -> vregs := max r !vregs
    | Visa.Slot s -> slots := max s !slots
  in
  Visa.fold_instrs (Visa.fold_locs note) () p.Visa.setup;
  Visa.fold_instrs (Visa.fold_locs note) () p.Visa.body;
  (1 + !vregs, 1 + !slots, !names)

(* Every register is written by one of the width-bearing opcodes below
   (or by a reload of a value one of them spilled), so their maximum
   is a sound lane stride for the whole file. *)
let max_lanes_instr acc = function
  | Visa.Vload { elems; _ } | Visa.Vstore { elems; _ } ->
      max acc (List.length elems)
  | Visa.Vgather { srcs; _ } -> max acc (List.length srcs)
  | Visa.Vunpack { dsts; _ } -> max acc (List.length dsts)
  | Visa.Vbroadcast { lanes; _ } -> max acc lanes
  | Visa.Vpermute { sel; _ } -> max acc (Array.length sel)
  | Visa.Vshuffle2 { sel; _ } -> max acc (Array.length sel)
  | Visa.Vload_scalars { sources; _ } -> max acc (List.length sources)
  | Visa.Vstore_scalars { targets; _ } -> max acc (List.length targets)
  | Visa.Vbin _ | Visa.Vun _ | Visa.Vspill _ | Visa.Vreload _ | Visa.Sstmt _ -> acc

let program_lane_stride (p : Visa.program) =
  let f = Visa.fold_instrs max_lanes_instr in
  max 1 (f (f 1 p.Visa.setup) p.Visa.body)

let max_expr_depth_instr acc = function
  | Visa.Sstmt s -> max acc (Expr.depth s.Stmt.rhs)
  | _ -> acc

(* Expression temporaries a state needs: [compile_expr] puts a
   statement's value at slot 0 and uses one more slot per level. *)
let program_tmp_slots (p : Visa.program) =
  let f = Visa.fold_instrs max_expr_depth_instr in
  1 + f (f 0 p.Visa.setup) p.Visa.body

let make_ctx ~machine ~values_only ~stride mem names =
  List.iter (fun v -> ignore (Memory.scalar_slot mem v)) names;
  { mem; machine; values_only; sdata = Memory.scalar_values mem; stride }

let fresh_state ?contention ~machine ~nframe ~ntmp ~nvregs ~stride ~nslots ~sdata () =
  {
    cache = Cache.create ?contention machine;
    counters = Counters.create ();
    cycles = [| 0.0 |];
    frame = Array.make (max 1 nframe) 0;
    tmp = FA.make ntmp 0.0;
    vregs = FA.make (max 1 (nvregs * stride)) 0.0;
    vlanes = Array.make (max 1 nvregs) (-1);
    fscratch = FA.make (max 1 stride) 0.0;
    iscratch = Array.make (max 1 stride) 0;
    spills = FA.make (max 1 (nslots * stride)) 0.0;
    spill_ln = Array.make (max 1 nslots) (-1);
    sdata;
  }

(* -- drivers (multicore semantics mirror the interpreters) --------- *)

(* Execute the partitioned per-core legs — core [k] runs the main
   loop's [k]-th chunk (plus the non-loop items on core 0) against its
   own cache, counters, registers, and spill arena — then merge
   deterministically in core order.  With a pool the legs run on real
   domains: compiled closures are state-pure (all mutable scratch
   lives in the per-core [state]) and the simulated cycle/cache
   accounting is address-driven, so concurrent execution produces
   bit-identical counters to the sequential legs.

   Privatization is verdict-driven, not pool-driven: whenever
   {!Parcheck} proves the program [Parallel] each core — pooled or
   sequential — runs on its own copy of [sdata], so the sequential
   chunked leg and the domain leg share one semantics and stay
   bit-identical.  Shared [Memory] array data is written concurrently
   only by the data-parallel chunks themselves (disjoint by the
   dependence analysis).  Non-reduction scalar slots merge by blitting
   the non-empty cores' copies in core order (last wins — the values
   the sequential legs leave behind, because the privatization check
   guarantees each chunk writes them before reading).  Recognized
   reduction slots start each core at the operator's identity and
   merge as [entry ⊕ partial_0 ⊕ partial_1 ⊕ …] over the non-empty
   cores in core order — the defined semantics of chunked execution
   for both legs (empty chunks are skipped so they cannot perturb
   signed zeros). *)
let exec_cores ?pool ~privatize ~reductions ~fresh ~sdata ~items ~main_idx
    ~main_loop ~ranges ~into () =
  let ranges = Array.of_list ranges in
  let cores = Array.length ranges in
  assert (pool = None || privatize);
  let entries = List.map (fun (slot, _) -> FA.get sdata slot) reductions in
  let sts =
    Array.init cores (fun _ ->
        if privatize then begin
          let sd = FA.copy sdata in
          List.iter
            (fun (slot, op) -> FA.set sd slot (Depend.identity_of op))
            reductions;
          fresh ~sdata:sd ()
        end
        else fresh ~sdata ())
  in
  let run_core core =
    let st = sts.(core) in
    let clo, chi = ranges.(core) in
    List.iteri
      (fun j item ->
        if j = main_idx then run_loop st main_loop ~lo:clo ~hi:chi
        else if core = 0 then run_item st item)
      items
  in
  (match pool with
  | Some p -> Dpool.run p cores run_core
  | None ->
      for core = 0 to cores - 1 do
        run_core core
      done);
  if privatize then begin
    Array.iteri
      (fun core (st : state) ->
        let clo, chi = ranges.(core) in
        if clo < chi then FA.blit st.sdata 0 sdata 0 (FA.length sdata))
      sts;
    List.iter2
      (fun (slot, op) entry ->
        let acc = ref entry in
        Array.iteri
          (fun core (st : state) ->
            let clo, chi = ranges.(core) in
            if clo < chi then
              acc := Types.eval_binop op !acc (FA.get st.sdata slot))
          sts;
        FA.set sdata slot !acc)
      reductions entries
  end;
  let max_cycles = ref 0.0 in
  Array.iter
    (fun st ->
      max_cycles := Float.max !max_cycles st.cycles.(0);
      Counters.merge_into ~into st.counters;
      Cache.release st.cache)
    sts;
  !max_cycles

(* The same privatize/merge semantics packaged for the reference
   interpreters, which run their cores strictly sequentially against
   [Memory]'s live backing store instead of per-state [sdata] copies:
   [p_enter core] restores the entry snapshot and seeds reduction
   identities, [p_exit core] snapshots the core's partial, [p_finish]
   merges — non-empty cores blitted in core order, then reduction
   slots folded from the entry value.  With a [Serial] verdict all
   three are no-ops and the cores accumulate on shared state as
   before.  Callers must pre-register every scalar name the program
   mentions before constructing the privatizer (the backing store is
   replaced when a slot is first created). *)
type privatizer = {
  p_enter : int -> unit;
  p_exit : int -> unit;
  p_finish : unit -> unit;
}

let make_privatizer ~memory ~ranges ~(verdict : Depend.verdict) =
  match verdict with
  | Depend.Serial _ ->
      { p_enter = ignore; p_exit = ignore; p_finish = (fun () -> ()) }
  | Depend.Parallel { reductions } ->
      let red =
        List.map (fun (v, op) -> (Memory.scalar_slot memory v, op)) reductions
      in
      let sdata = Memory.scalar_values memory in
      let len = FA.length sdata in
      let entry = FA.copy sdata in
      let entries = List.map (fun (slot, _) -> FA.get entry slot) red in
      let ranges = Array.of_list ranges in
      let partials = Array.make (max 1 (Array.length ranges)) entry in
      {
        p_enter =
          (fun _core ->
            FA.blit entry 0 sdata 0 len;
            List.iter
              (fun (slot, op) -> FA.set sdata slot (Depend.identity_of op))
              red);
        p_exit = (fun core -> partials.(core) <- FA.copy sdata);
        p_finish =
          (fun () ->
            Array.iteri
              (fun core p ->
                let clo, chi = ranges.(core) in
                if clo < chi then FA.blit p 0 sdata 0 len)
              partials;
            List.iter2
              (fun (slot, op) e ->
                let acc = ref e in
                Array.iteri
                  (fun core p ->
                    let clo, chi = ranges.(core) in
                    if clo < chi then
                      acc := Types.eval_binop op !acc (FA.get p slot))
                  partials;
                FA.set sdata slot !acc)
              red entries);
      }

(* Domain execution is only taken when nothing global is observed per
   access: profiling bins into one shared profile and fault injection
   advances a global tick, so either forces the sequential legs. *)
let use_pool pool ~profile =
  match pool with
  | Some p
    when Dpool.workers p > 0 && Option.is_none profile
         && not !Trap.fault_enabled ->
      Some p
  | _ -> None

(* Setup (layout replication) runs once.  Replication loops are data
   parallel, so under multicore execution each one is partitioned like
   the main loop and its time is the slowest core's share.  Returns the
   setup cycles and leaves [st]'s accumulator at zero. *)
let run_setup st ~cores setup =
  if cores <= 1 then begin
    run_items st setup;
    let c = st.cycles.(0) in
    st.cycles.(0) <- 0.0;
    c
  end
  else begin
    let total = ref 0.0 in
    List.iter
      (fun item ->
        match item with
        | Cloop ({ c_const_bounds = Some (lo, hi); _ } as l) ->
            let slowest = ref 0.0 in
            List.iter
              (fun (clo, chi) ->
                let before = st.cycles.(0) in
                run_loop st l ~lo:clo ~hi:chi;
                slowest := Float.max !slowest (st.cycles.(0) -. before))
              (chunk_ranges ~lo ~hi ~step:l.c_step ~cores);
            total := !total +. !slowest
        | Cloop _ | Cblock _ -> run_item st item)
      setup;
    st.cycles.(0) <- 0.0;
    !total
  end

(* The one driver.  The chunk-independence verdict on [prog] is
   computed only when a multicore run partitions a loop.  A
   [values_only] run builds and merges its states exactly as a timed
   run does; its closures just never touch them for timing, so its
   counters stay zero. *)
let run ?(cores = 1) ?(seed = 42) ?memory ?profile ?origins ?pool ~machine
    ~values_only (prog : Visa.program) =
  let memory =
    match memory with
    | Some m -> m
    | None ->
        let m = Memory.create ~env:prog.Visa.env () in
        Memory.init_arrays m ~seed;
        m
  in
  (match profile with
  | None -> ()
  | Some p -> register_arrays p prog.Visa.env memory);
  let nvregs, nslots, names = program_footprint prog in
  let stride = program_lane_stride prog in
  let ctx = make_ctx ~machine ~values_only ~stride memory names in
  (* Only one-core runs without a profiler skip iterations: a
     multicore run's costs need not be integers and it splits its
     first loop over per-core states, and a profiler observes every
     access.  A timed run fast-forwards, a values-only run settles. *)
  let tail =
    if cores > 1 || Option.is_some profile then simulate
    else if values_only then settle_tail
    else values_tail ctx
  in
  let setup = compile_items ?prof:profile ~keys:`Setup ~tail ctx prog.Visa.setup in
  let body =
    compile_items ?prof:profile
      ~keys:(`Origins (ref (Option.value origins ~default:[])))
      ~tail ctx prog.Visa.body
  in
  assert (Memory.scalar_values memory == ctx.sdata);
  let nframe = max (prog_depth prog.Visa.setup) (prog_depth prog.Visa.body) in
  let ntmp = program_tmp_slots prog in
  let fresh ?contention ~sdata () =
    let st =
      fresh_state ?contention ~machine ~nframe ~ntmp ~nvregs ~stride ~nslots ~sdata ()
    in
    observe_cache profile st.cache;
    st
  in
  let fresh_shared () = fresh ~sdata:ctx.sdata () in
  (* A program without setup (every scalar program) allocates no setup
     state: its cache alone is about 267k words. *)
  let setup_state, setup_cycles =
    match setup with
    | [] -> (None, 0.0)
    | setup ->
        let st = fresh_shared () in
        (Some st, run_setup st ~cores setup)
  in
  let single st =
    run_items st body;
    st.counters.Counters.cycles <- st.cycles.(0);
    st.counters.Counters.setup_cycles <- setup_cycles;
    Cache.release st.cache;
    { counters = st.counters; memory }
  in
  if cores <= 1 then
    single (match setup_state with Some st -> st | None -> fresh_shared ())
  else begin
    (* Past setup, a multicore run's setup state keeps only its
       counters. *)
    Option.iter (fun st -> Cache.release st.cache) setup_state;
    match first_cloop body with
    | None -> single (fresh_shared ())
    | Some (main_idx, main_loop) ->
        let contention =
          1.0 +. (float_of_int (cores - 1) *. machine.M.contention_per_core)
        in
        let lo, hi =
          match main_loop.c_const_bounds with
          | Some (lo, hi) -> (lo, hi)
          | None -> raise Not_found
        in
        let ranges = chunk_ranges ~lo ~hi ~step:main_loop.c_step ~cores in
        let privatize, reductions =
          match Parcheck.analyze prog with
          | Parcheck.Parallel { reductions } ->
              ( true,
                List.map (fun (v, op) -> (Memory.scalar_slot memory v, op)) reductions )
          | Parcheck.Serial _ -> (false, [])
        in
        assert (Memory.scalar_values memory == ctx.sdata);
        let pool =
          match use_pool pool ~profile with
          | Some p when privatize -> Some p
          | _ -> None
        in
        let all =
          match setup_state with Some st -> st.counters | None -> Counters.create ()
        in
        all.Counters.setup_cycles <- setup_cycles;
        all.Counters.cycles <-
          exec_cores ?pool ~privatize ~reductions
            ~fresh:(fun ~sdata () -> fresh ~contention ~sdata ())
            ~sdata:ctx.sdata ~items:body ~main_idx ~main_loop ~ranges ~into:all ();
        { counters = all; memory }
  end

(* -- timing-only compile -------------------------------------------- *)

(* The register-lane checks of the timed closures, decided before a
   timing-only run.  A lane state holds each register's lane count
   (-1: never written); lane counts follow from which instructions ran,
   never from values.  [lane_step] applies one instruction and raises
   [Unproven] wherever its timed closure could raise. *)
exception Unproven

let lane_step lanes instr =
  let read r =
    let n = lanes.(r) in
    if n < 0 then raise Unproven;
    n
  in
  let require ok = if not ok then raise Unproven in
  match instr with
  | Visa.Sstmt _ -> ()
  | Visa.Vload { dst; elems } -> lanes.(dst) <- List.length elems
  | Visa.Vgather { dst; srcs } -> lanes.(dst) <- List.length srcs
  | Visa.Vbroadcast { dst; lanes = n; _ } -> lanes.(dst) <- n
  | Visa.Vload_scalars { dst; sources } -> lanes.(dst) <- List.length sources
  | Visa.Vstore { src; elems } -> require (read src >= List.length elems)
  | Visa.Vstore_scalars { src; targets } -> require (read src >= List.length targets)
  | Visa.Vunpack { src; dsts } ->
      let n = read src in
      List.iteri (fun i d -> require (Option.is_none d || i < n)) dsts
  | Visa.Vpermute { dst; src; sel } ->
      let n = read src in
      Array.iter (fun s -> require (s >= 0 && s < n)) sel;
      lanes.(dst) <- Array.length sel
  | Visa.Vshuffle2 { dst; a; b; sel } ->
      let na = read a in
      let nb = read b in
      Array.iter (fun (side, l) -> require (l >= 0 && l < if side = 0 then na else nb)) sel;
      lanes.(dst) <- Array.length sel
  | Visa.Vbin { dst; a; b; _ } ->
      let na = read a in
      require (read b >= na);
      lanes.(dst) <- na
  | Visa.Vun { dst; a; _ } -> lanes.(dst) <- read a
  | Visa.Vspill _ | Visa.Vreload _ -> raise Unproven

let same_lanes a b = Array.for_all2 Int.equal a b
let add_lanes states s = if List.exists (same_lanes s) states then states else s :: states

(* A bound on the lane states a loop may reach before the proof gives
   up (the program then runs timed). *)
let max_lane_states = 64

(* The lane states that can leave [items], entered in any of
   [states].  A loop body is walked from every state that can enter it
   — those reaching the loop, then those each walk leaves — until no
   new one appears.  Two walks are not enough: [Vbin] and [Vun] copy a
   lane count from register to register, so a count can take several
   iterations to reach the register that reads it.  A loop may exit
   untaken unless its bounds are constants with [lo < hi]. *)
let rec lane_items states items = List.fold_left lane_item states items

and lane_item states = function
  | Visa.Block instrs ->
      List.fold_left
        (fun acc s ->
          let s = Array.copy s in
          List.iter (lane_step s) instrs;
          add_lanes acc s)
        [] states
  | Visa.Loop l -> (
      let rec walk entered exits = function
        | [] -> exits
        | frontier ->
            let out = lane_items frontier l.Visa.body in
            let fresh = List.filter (fun s -> not (List.exists (same_lanes s) entered)) out in
            let entered = List.fold_left add_lanes entered fresh in
            if List.length entered > max_lane_states then raise Unproven;
            walk entered (List.fold_left add_lanes exits out) fresh
      in
      match (Affine.to_const l.Visa.lo, Affine.to_const l.Visa.hi) with
      | Some lo, Some hi when hi <= lo -> states
      | Some _, Some _ -> walk states [] states
      | _ -> List.fold_left add_lanes (walk states [] states) states)

(* No register-lane check of [prog]'s timed run can fail.  At one core
   setup and body run on one state, so the body starts from the lane
   states setup leaves. *)
let lanes_proven (prog : Visa.program) =
  match
    lane_items
      (let nvregs, _, _ = program_footprint prog in
       lane_items [ Array.make nvregs (-1) ] prog.Visa.setup)
      prog.Visa.body
  with
  | _ -> true
  | exception (Unproven | Invalid_argument _) -> false

(* The counter increments of [d], added to [into]: the int fields only
   (a float field update would box). *)
let add_counts (into : Counters.t) (d : Counters.t) =
  into.scalar_ops <- into.scalar_ops + d.scalar_ops;
  into.vector_ops <- into.vector_ops + d.vector_ops;
  into.scalar_loads <- into.scalar_loads + d.scalar_loads;
  into.scalar_stores <- into.scalar_stores + d.scalar_stores;
  into.vector_loads <- into.vector_loads + d.vector_loads;
  into.vector_stores <- into.vector_stores + d.vector_stores;
  into.pack_loads <- into.pack_loads + d.pack_loads;
  into.pack_stores <- into.pack_stores + d.pack_stores;
  into.inserts <- into.inserts + d.inserts;
  into.extracts <- into.extracts + d.extracts;
  into.permutes <- into.permutes + d.permutes;
  into.broadcasts <- into.broadcasts + d.broadcasts

(* One element access: the timed closure's bounds check and address,
   then its [Cache.charge]. *)
let time_elem ?stmt ctx ~depths ~issue op =
  let { e_base; e_bytes = bytes; e_flat; _ } = link_elem ?stmt ctx ~depths op in
  fun st ->
    Cache.charge st.cache st.cycles ~issue ~addr:(e_base + (e_flat st.frame * bytes)) ~bytes

(* A vload's or vstore's one access: a contiguous pack's range check,
   or every lane's checks in lane order, then lane 0's address. *)
let time_pack ctx ~depths ~issue elems =
  let n = List.length elems in
  match contig ctx ~depths elems with
  | Some (name, f0) ->
      let base = Memory.array_base ctx.mem name in
      let bytes = Memory.elem_bytes ctx.mem name in
      let bytes_total = bytes * n in
      fun st ->
        Cache.charge st.cache st.cycles ~issue ~addr:(base + (f0 st.frame * bytes))
          ~bytes:bytes_total
  | None ->
      let es = Array.of_list (List.map (link_elem ctx ~depths) elems) in
      let e0 = es.(0) in
      let bytes_total = e0.e_bytes * n in
      fun st ->
        let frame = st.frame in
        let fl0 = e0.e_flat frame in
        for k = 1 to n - 1 do
          ignore ((Array.unsafe_get es k).e_flat frame : int)
        done;
        Cache.charge st.cache st.cycles ~issue ~addr:(e0.e_base + (fl0 * e0.e_bytes))
          ~bytes:bytes_total

let time_scalars ctx ~issue names =
  let bytes = 8 * List.length names in
  let addr0 =
    try Ok (Memory.scalar_addr ctx.mem (List.hd names)) with Invalid_argument msg -> Error msg
  in
  fun st ->
    let addr = match addr0 with Ok a -> a | Error msg -> invalid_arg msg in
    Cache.charge st.cache st.cycles ~issue ~addr ~bytes

(* An instruction's counter increments go into [d] and its non-memory
   cycles into [cycles]; returns its accesses in the timed closure's
   order. *)
let time_instr ctx ~depths (d : Counters.t) cycles instr =
  let costs = ctx.machine.M.costs in
  let load = float_of_int costs.M.load_issue and store = float_of_int costs.M.store_issue in
  let cost c = cycles := !cycles + c in
  let pack_load op =
    d.pack_loads <- d.pack_loads + 1;
    time_elem ctx ~depths ~issue:load op
  in
  match instr with
  | Visa.Sstmt s ->
      let stmt = s.Stmt.id in
      (* Right operands load before left ones, as [compile_expr]
         evaluates them. *)
      let rec reads acc = function
        | Expr.Leaf (Operand.Elem _ as op) ->
            d.scalar_loads <- d.scalar_loads + 1;
            time_elem ~stmt ctx ~depths ~issue:load op :: acc
        | Expr.Leaf (Operand.Const _ | Operand.Scalar _) -> acc
        | Expr.Un (_, e) -> reads acc e
        | Expr.Bin (_, l, r) -> reads (reads acc r) l
      in
      let loads = reads [] s.Stmt.rhs in
      d.scalar_ops <- d.scalar_ops + Stmt.op_count s;
      cost (stmt_op_cycles costs s);
      List.rev
        (match s.Stmt.lhs with
        | Operand.Elem _ as op ->
            d.scalar_stores <- d.scalar_stores + 1;
            time_elem ~stmt ctx ~depths ~issue:store op :: loads
        | Operand.Scalar _ -> loads
        | Operand.Const _ -> assert false)
  | Visa.Vload { elems; _ } ->
      d.vector_loads <- d.vector_loads + 1;
      [ time_pack ctx ~depths ~issue:load elems ]
  | Visa.Vstore { elems; _ } ->
      d.vector_stores <- d.vector_stores + 1;
      [ time_pack ctx ~depths ~issue:store elems ]
  | Visa.Vgather { srcs; _ } ->
      let n = List.length srcs in
      d.inserts <- d.inserts + n;
      cost (n * costs.M.insert);
      List.filter_map (function Visa.Mem op -> Some (pack_load op) | _ -> None) srcs
  | Visa.Vunpack { dsts; _ } ->
      List.filter_map
        (function
          | None -> None
          | Some dst -> (
              d.extracts <- d.extracts + 1;
              cost costs.M.extract;
              match dst with
              | Visa.To_reg _ -> None
              | Visa.To_mem op ->
                  d.pack_stores <- d.pack_stores + 1;
                  Some (time_elem ctx ~depths ~issue:store op)))
        dsts
  | Visa.Vbroadcast { src; _ } ->
      d.broadcasts <- d.broadcasts + 1;
      cost costs.M.broadcast;
      (match src with Visa.Mem op -> [ pack_load op ] | Visa.Reg _ | Visa.Imm _ -> [])
  | Visa.Vpermute _ | Visa.Vshuffle2 _ ->
      d.permutes <- d.permutes + 1;
      cost costs.M.permute;
      []
  | Visa.Vbin { op; _ } ->
      d.vector_ops <- d.vector_ops + 1;
      cost (match op with Types.Div -> costs.M.divide | _ -> costs.M.vector_op);
      []
  | Visa.Vun { op; _ } ->
      d.vector_ops <- d.vector_ops + 1;
      cost (match op with Types.Sqrt -> costs.M.square_root | _ -> costs.M.vector_op);
      []
  | Visa.Vload_scalars { sources; _ } ->
      d.vector_loads <- d.vector_loads + 1;
      [ time_scalars ctx ~issue:load sources ]
  | Visa.Vstore_scalars { targets; _ } ->
      d.vector_stores <- d.vector_stores + 1;
      [ time_scalars ctx ~issue:store targets ]
  | Visa.Vspill _ | Visa.Vreload _ -> raise Unproven

(* One execution of a block: its static cycles and counts, then its
   accesses. *)
let time_block ctx ~depths instrs =
  let d = Counters.create () and cycles = ref 0 in
  let accesses = Array.of_list (List.concat_map (time_instr ctx ~depths d cycles) instrs) in
  let static = float_of_int !cycles in
  fun st ->
    charge st static;
    add_counts st.counters d;
    run_block accesses st

let fallbacks = Atomic.make 0
let timing_fallbacks () = Atomic.get fallbacks

let run_timing ?scalar_layout ~machine (prog : Visa.program) =
  let layout = Memory.layout ?scalar_layout ~env:prog.Visa.env () in
  let timed () =
    Atomic.incr fallbacks;
    let memory = Memory.create ?scalar_layout ~env:prog.Visa.env () in
    (run ~memory ~machine ~values_only:false prog).counters
  in
  let ctx =
    { mem = layout; machine; values_only = false; sdata = Memory.scalar_values layout; stride = 1 }
  in
  let link = link_items ~block:(time_block ctx) ~tail:(replay_tail ~machine ~values:None) ~depths:[] ~depth:0 in
  (* Linking raises only where the timed compile raises too (an
     unbound loop index, an unknown array, an empty pack); the timed
     engine then raises its own error. *)
  match if lanes_proven prog then Some (link prog.Visa.setup, link prog.Visa.body) else None with
  | exception _ | None -> timed ()
  | Some (setup, body) ->
      let nframe = max (prog_depth prog.Visa.setup) (prog_depth prog.Visa.body) in
      let st =
        fresh_state ~machine ~nframe ~ntmp:1 ~nvregs:0 ~stride:1 ~nslots:0 ~sdata:ctx.sdata ()
      in
      let setup_cycles = run_setup st ~cores:1 setup in
      run_items st body;
      st.counters.Counters.cycles <- st.cycles.(0);
      st.counters.Counters.setup_cycles <- setup_cycles;
      Cache.release st.cache;
      st.counters

let run_scalar ?cores ?seed ?memory ?profile ?pool ~machine (prog : Program.t) =
  run ?cores ?seed ?memory ?profile ?pool ~machine ~values_only:false
    (Visa.of_program prog)

let scalar_final_memory ?cores ?seed ~machine (prog : Program.t) =
  (run ?cores ?seed ~machine ~values_only:true (Visa.of_program prog)).memory

let vector_final_memory ?cores ?seed ?memory ~machine prog =
  (run ?cores ?seed ?memory ~machine ~values_only:true prog).memory

let run_vector = run ~values_only:false
