(* Chunk-independence analysis for the domain-parallel leg.

   The multicore simulation partitions the first top-level loop into
   per-core chunks; executing them on concurrent domains must be
   observationally identical to the sequential chunked run.  One
   analysis serves every program the engine runs: a scalar program is
   analysed as its [Visa.of_program] image, whose statements are all
   [Sstmt]s, so scalar and vector code get their verdict from the same
   rules, and every rule reads what an instruction touches from
   {!Visa.fold_locs}:

   - array chunk independence: accesses are collected from every
     instruction with their iteration boxes and tested pairwise with
     {!Depend.cross_instance_conflict} (no cross-iteration conflict on
     the partitioned index — offset subscripts and stride patterns are
     admitted when the solver proves the footprints disjoint);
   - reductions: recognised by {!Depend.reductions_of_stmts} from the
     scalar [Sstmt] update chains, and disqualified by any other
     instruction touching the scalar; they run on per-core partial
     accumulators merged in core order, which {!Engine} also makes the
     semantics of the sequential chunked leg so domain runs stay
     bit-identical;
   - remaining written scalars must be written before read within one
     iteration of the partitioned loop (privatizable temporaries): the
     first read {!Visa.first_reads} finds before any certain write of
     such a scalar names the reason.  A self-update [s = f(s)] that is
     not a reduction reads [s] before any write unless [s] was written
     earlier in the iteration, so it fails this rule or is a
     temporary.

   Soundness rests on control flow being data-independent: loop
   bounds are affine in the enclosing indices, so every chunk executes
   a fixed access sequence regardless of the float data.  [Serial]
   never breaks anything — the engine keeps its sequential legs. *)

open Slp_ir
open Slp_depend

type verdict = Depend.verdict =
  | Serial of string
  | Parallel of { reductions : (string * Types.binop) list }

exception Unsafe of string

(* The array accesses of [items] with their iteration boxes, each
   instruction's writes before its reads (the first conflicting access
   names the reason); the [Sstmt] statements; and the scalars some
   other instruction touches, which disqualify a reduction (its
   accumulator may only live in its own update chain). *)
let collect ~box0 items =
  let accesses = ref [] and sstmts = ref [] and foreign = ref [] in
  let rec go ~box items =
    List.iter
      (function
        | Visa.Block instrs ->
            List.iter
              (fun (i : Visa.instr) ->
                let writes, reads =
                  Visa.fold_locs
                    (fun (ws, rs) ~write -> function
                      | Visa.Elem (base, idxs) ->
                          let a = { Depend.stmt = 0; base; idxs; write; box } in
                          if write then (a :: ws, rs) else (ws, a :: rs)
                      | Visa.Scalar v ->
                          (match i with Visa.Sstmt _ -> () | _ -> foreign := v :: !foreign);
                          (ws, rs)
                      | Visa.Vreg _ | Visa.Slot _ -> (ws, rs))
                    ([], []) i
                in
                (* Newest first, so the writes come out first. *)
                accesses := reads @ writes @ !accesses;
                match i with Visa.Sstmt s -> sstmts := s :: !sstmts | _ -> ())
              instrs
        | Visa.Loop l ->
            go
              ~box:
                (Depend.Box.add box l.Visa.index
                   (Depend.Box.of_bounds ~lo:l.Visa.lo ~hi:l.Visa.hi
                      ~step:l.Visa.step))
              l.Visa.body)
      items
  in
  go ~box:box0 items;
  (List.rev !accesses, List.rev !sstmts, !foreign)

let analyze (prog : Visa.program) =
  match prog.Visa.body with
  | [ (Visa.Loop l as main) ] -> begin
      let pvar = l.Visa.index in
      let box0 =
        Depend.Box.add Depend.Box.empty pvar
          (Depend.Box.of_bounds ~lo:l.Visa.lo ~hi:l.Visa.hi ~step:l.Visa.step)
      in
      let accesses, sstmts, foreign = collect ~box0 l.Visa.body in
      let warrays =
        List.filter_map
          (fun (a : Depend.access) ->
            if a.Depend.write then Some a.Depend.base else None)
          accesses
        |> List.sort_uniq String.compare
      in
      match
        List.iter
          (fun (a : Depend.access) ->
            if List.mem a.Depend.base warrays then
              List.iter
                (fun (b : Depend.access) ->
                  if
                    String.equal a.Depend.base b.Depend.base
                    && (a.Depend.write || b.Depend.write)
                    && Depend.cross_instance_conflict ~pvar a b
                  then raise (Unsafe ("par-array-dep:" ^ a.Depend.base)))
                accesses)
          accesses;
        let reductions =
          List.filter
            (fun (s, _) -> not (List.mem s foreign))
            (Depend.reductions_of_stmts sstmts)
        in
        (* Walked as the whole loop, so reads of [pvar] are the index. *)
        let { Visa.early; written } = Visa.first_reads [ main ] in
        List.iter
          (function
            | Visa.Scalar v as loc
              when Visa.Locs.mem loc written && not (List.mem_assoc v reductions) ->
                raise (Unsafe ("par-scalar:" ^ v))
            | _ -> ())
          early;
        reductions
      with
      | reductions -> Parallel { reductions }
      | exception Unsafe reason -> Serial reason
    end
  | _ -> Serial "par-shape"
