(* A small reusable branch-and-bound core for exact set-partition
   optimisation (minimisation), the combinatorial heart of 0-1 pack
   selection.  Zero dependencies: the client supplies the universe of
   element ids, the legal multi-element parts containing a given
   element, admissible lower bounds, a joint-feasibility check and the
   exact objective of a complete partition.

   Enumeration is canonical and therefore exhaustive without
   duplicates: at every node the solver branches on the *lowest*
   uncovered element, which either stays single or joins one of the
   legal parts in which it is the minimum member.  Every partition of
   the universe into legal parts is generated exactly once.

   Bounding is LP-free: the accumulated bound of the chosen parts plus
   a per-element relaxation of the uncovered set must stay below the
   incumbent.  The relaxation is memoised on the signature of the
   uncovered set (a bitset rendered as a string), so revisits of the
   same residual problem under different prefixes are free. *)

type 'a choice = {
  part : 'a;  (** client's part descriptor (opaque to the solver) *)
  members : int list;  (** element ids covered by this part *)
  bound : float;  (** admissible lower bound on the part's cost *)
}

type stats = {
  mutable nodes : int;  (** branch nodes expanded *)
  mutable leaves : int;  (** complete partitions evaluated *)
  mutable memo_hits : int;  (** relaxation cache hits *)
  mutable pruned : int;  (** subtrees cut by the bound *)
}

let new_stats () = { nodes = 0; leaves = 0; memo_hits = 0; pruned = 0 }
let epsilon = 1e-9

(* [solve] minimises over all partitions of [universe] into parts.
   [choices e ~available] must list every legal multi-element part
   whose minimum member is [e], drawn from elements for which
   [available] holds; [single e] is the always-legal singleton part.
   [relax e ~available] is an admissible per-element lower bound given
   the residual availability.  [feasible parts] jointly checks the
   chosen parts (e.g. acyclicity after contraction); it is invoked
   incrementally each time a multi-element part is added.  [leaf] maps
   a complete choice list to its exact objective ([None] =
   infeasible).  [tick] is called once per node so the caller can
   meter fuel; letting it raise aborts the search.  The search counts
   into [stats], which the caller owns: the counts of an aborted search
   stay readable.  The result is the best complete partition found that
   beats the incumbent, with its exact objective; [None] when the
   incumbent was already optimal (or no feasible partition exists below
   it). *)
let solve ~universe ~choices ~single ~relax ~feasible ~leaf
    ?(incumbent = Float.infinity) ?(tick = fun () -> ()) ~stats () =
  let max_id = List.fold_left (fun acc e -> max acc e) 0 universe in
  let avail = Array.make (max_id + 1) false in
  List.iter (fun e -> avail.(e) <- true) universe;
  let in_universe = Array.copy avail in
  let sorted = List.sort_uniq compare universe in
  let best_cost = ref incumbent in
  let best_parts = ref None in
  let memo : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let signature () =
    let bytes = Bytes.make ((max_id / 8) + 1) '\000' in
    Array.iteri
      (fun i on ->
        if on then
          Bytes.set bytes (i / 8)
            (Char.chr (Char.code (Bytes.get bytes (i / 8)) lor (1 lsl (i mod 8)))))
      avail;
    Bytes.unsafe_to_string bytes
  in
  let relax_uncovered () =
    let key = signature () in
    match Hashtbl.find_opt memo key with
    | Some v ->
        stats.memo_hits <- stats.memo_hits + 1;
        v
    | None ->
        let v =
          List.fold_left
            (fun acc e ->
              if avail.(e) then acc +. relax e ~available:(fun i -> avail.(i))
              else acc)
            0.0 sorted
        in
        Hashtbl.add memo key v;
        v
  in
  let rec descend chosen acc_bound uncovered =
    tick ();
    stats.nodes <- stats.nodes + 1;
    match uncovered with
    | [] ->
        stats.leaves <- stats.leaves + 1;
        (match leaf (List.rev_map (fun c -> c.part) chosen) with
        | Some cost when cost < !best_cost -. epsilon ->
            best_cost := cost;
            best_parts := Some (List.rev chosen)
        | Some _ | None -> ())
    | e :: _ when not avail.(e) ->
        (* already covered by an earlier multi-element part *)
        descend chosen acc_bound (List.tl uncovered)
    | e :: rest ->
        if acc_bound +. relax_uncovered () >= !best_cost -. epsilon then
          stats.pruned <- stats.pruned + 1
        else begin
          let multi =
            choices e ~available:(fun i -> i <> e && avail.(i) && in_universe.(i))
          in
          let all =
            List.sort (fun a b -> Float.compare a.bound b.bound) (single e :: multi)
          in
          List.iter
            (fun c ->
              List.iter (fun m -> avail.(m) <- false) c.members;
              let ok =
                match c.members with
                | [ _ ] -> true
                | _ -> feasible (List.rev_map (fun x -> x.part) (c :: chosen))
              in
              if ok then descend (c :: chosen) (acc_bound +. c.bound) rest;
              List.iter (fun m -> avail.(m) <- true) c.members)
            all
        end
  in
  descend [] 0.0 sorted;
  match !best_parts with
  | Some parts -> Some (List.map (fun c -> c.part) parts, !best_cost)
  | None -> None
