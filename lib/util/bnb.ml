(* A small reusable branch-and-bound core for exact set-partition
   optimisation (minimisation), the combinatorial heart of 0-1 pack
   selection.  See bnb.mli for the contract.

   Enumeration is canonical and therefore exhaustive without
   duplicates: at every node the solver branches on the *lowest*
   uncovered element, which either stays single or joins one of the
   legal parts in which it is the minimum member.  Every partition of
   the universe into legal parts is generated exactly once.

   Bounding is LP-free: the accumulated bound of the chosen parts plus
   a per-element relaxation of the uncovered set must stay below the
   incumbent.  The relaxation is memoised on the uncovered set, kept
   as a bitset that the search updates in place, so revisits of the
   same residual problem under different prefixes are free and a
   lookup allocates nothing. *)

type 'a choice = { part : 'a; members : int array; bound : float }

type stats = {
  mutable nodes : int;
  mutable leaves : int;
  mutable memo_hits : int;
  mutable bound_cuts : int;
  mutable infeasible : int;
  mutable improvements : int;
}

let new_stats () =
  { nodes = 0; leaves = 0; memo_hits = 0; bound_cuts = 0; infeasible = 0; improvements = 0 }

let epsilon = 1e-9

(* The relaxation memo: open addressing with linear probing over keys of
   [words] ints each, stored flat ([keys] holds slot [s] at
   [s * words]).  [full] marks the slots in use.  It grows by doubling
   at half load, so only an insertion that doubles it allocates. *)
type memo = {
  words : int;
  mutable keys : int array;
  mutable values : Float.Array.t;
  mutable full : Bytes.t;
  mutable count : int;
}

let memo_create words =
  let slots = 64 in
  {
    words;
    keys = Array.make (slots * words) 0;
    values = Float.Array.make slots 0.0;
    full = Bytes.make slots '\000';
    count = 0;
  }

let hash (key : int array) =
  let h = ref 0 in
  for i = 0 to Array.length key - 1 do
    let x = (!h lxor key.(i)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h

(* The slot holding [key], or the empty slot where it belongs. *)
let memo_slot m (key : int array) =
  let mask = Bytes.length m.full - 1 and w = m.words in
  let rec probe s =
    if Bytes.unsafe_get m.full s = '\000' then s
    else
      let rec same i = i = w || (m.keys.((s * w) + i) = key.(i) && same (i + 1)) in
      if same 0 then s else probe ((s + 1) land mask)
  in
  probe (hash key land mask)

let memo_add m key v =
  if 2 * (m.count + 1) > Bytes.length m.full then begin
    let old_keys = m.keys and old_values = m.values and old_full = m.full in
    let slots = 2 * Bytes.length old_full and w = m.words in
    m.keys <- Array.make (slots * w) 0;
    m.values <- Float.Array.make slots 0.0;
    m.full <- Bytes.make slots '\000';
    let moved = Array.make w 0 in
    for s = 0 to Bytes.length old_full - 1 do
      if Bytes.get old_full s <> '\000' then begin
        Array.blit old_keys (s * w) moved 0 w;
        let t = memo_slot m moved in
        Array.blit moved 0 m.keys (t * w) w;
        Float.Array.set m.values t (Float.Array.get old_values s);
        Bytes.set m.full t '\001'
      end
    done
  end;
  let s = memo_slot m key in
  Array.blit key 0 m.keys (s * m.words) m.words;
  Float.Array.set m.values s v;
  Bytes.set m.full s '\001';
  m.count <- m.count + 1

let bits = Sys.int_size

let solve ~size ~choices ~single ~relax ~feasible ~undo ~leaf ?(incumbent = Float.infinity)
    ?(tick = fun () -> ()) ~stats () =
  let avail = Array.make size true in
  let available i = avail.(i) in
  (* [avail] as a bitset: the memo's key. *)
  let residual = Array.make ((size + bits - 1) / bits) 0 in
  for e = 0 to size - 1 do
    residual.(e / bits) <- residual.(e / bits) lor (1 lsl (e mod bits))
  done;
  let take m =
    avail.(m) <- false;
    residual.(m / bits) <- residual.(m / bits) land lnot (1 lsl (m mod bits))
  and give m =
    avail.(m) <- true;
    residual.(m / bits) <- residual.(m / bits) lor (1 lsl (m mod bits))
  in
  let best_cost = ref incumbent in
  let best_parts = ref None in
  let memo = memo_create (Array.length residual) in
  let relax_uncovered () =
    let s = memo_slot memo residual in
    if Bytes.get memo.full s <> '\000' then begin
      stats.memo_hits <- stats.memo_hits + 1;
      Float.Array.get memo.values s
    end
    else begin
      let v = ref 0.0 in
      for e = 0 to size - 1 do
        if avail.(e) then v := !v +. relax e ~available
      done;
      memo_add memo residual !v;
      !v
    end
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Float.compare a.bound b.bound <= 0 && sorted rest
    | [] | [ _ ] -> true
  in
  let rec descend chosen acc_bound e =
    tick ();
    stats.nodes <- stats.nodes + 1;
    if e = size then begin
      stats.leaves <- stats.leaves + 1;
      match leaf (List.rev_map (fun c -> c.part) chosen) with
      | Some cost when cost < !best_cost -. epsilon ->
          stats.improvements <- stats.improvements + 1;
          best_cost := cost;
          best_parts := Some (List.rev chosen)
      | Some _ | None -> ()
    end
    else if not avail.(e) then
      (* already covered by an earlier multi-element part *)
      descend chosen acc_bound (e + 1)
    else if acc_bound +. relax_uncovered () >= !best_cost -. epsilon then
      stats.bound_cuts <- stats.bound_cuts + 1
    else begin
      let multi = choices e ~available in
      let multi = if sorted multi then multi else List.stable_sort (fun a b -> Float.compare a.bound b.bound) multi in
      let branch c =
        Array.iter take c.members;
        if Array.length c.members = 1 then descend (c :: chosen) (acc_bound +. c.bound) (e + 1)
        else if feasible c.part then begin
          descend (c :: chosen) (acc_bound +. c.bound) (e + 1);
          undo c.part
        end
        else stats.infeasible <- stats.infeasible + 1;
        Array.iter give c.members
      in
      (* The single goes where a stable sort of [single :: multi] by
         bound puts it: before the first part it does not exceed. *)
      let s = single e in
      let rec go = function
        | [] -> branch s
        | c :: rest as all ->
            if Float.compare s.bound c.bound <= 0 then begin
              branch s;
              List.iter branch all
            end
            else begin
              branch c;
              go rest
            end
      in
      go multi
    end
  in
  descend [] 0.0 0;
  match !best_parts with
  | Some parts -> Some (List.map (fun c -> c.part) parts, !best_cost)
  | None -> None
