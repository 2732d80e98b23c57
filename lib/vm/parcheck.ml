(* Chunk-independence analysis for the domain-parallel leg.

   The multicore simulation partitions the first top-level loop into
   per-core chunks; executing them on concurrent domains must be
   observationally identical to the sequential chunked run.  One
   analysis serves every program the engine runs: a scalar program is
   analysed as its [Visa.of_program] image, whose statements are all
   [Sstmt]s, so scalar and vector code get their verdict from the same
   rules:

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
     iteration of the partitioned loop (privatizable temporaries).  A
     self-update [s = f(s)] that is not a reduction reads [s] before
     any write unless [s] was written earlier in the iteration, so it
     fails this replay or is a temporary.

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

let add xs x = if List.mem x xs then xs else x :: xs

(* A loop whose bounds are compile-time constants provably executes at
   least once; only then may its writes count as definite for code
   after it (a zero-trip loop writes nothing). *)
let trip_at_least_once ~lo ~hi =
  match (Affine.to_const lo, Affine.to_const hi) with
  | Some lo, Some hi -> hi > lo
  | _ -> false

(* Array accesses of one instruction, as (elem, write) pairs. *)
let instr_elems (i : Visa.instr) =
  let of_op ~write = function
    | Operand.Elem (b, idxs) -> [ (b, idxs, write) ]
    | Operand.Scalar _ | Operand.Const _ -> []
  in
  let of_src = function
    | Visa.Mem op -> of_op ~write:false op
    | Visa.Imm _ | Visa.Reg _ -> []
  in
  match i with
  | Visa.Vload { elems; _ } -> List.concat_map (of_op ~write:false) elems
  | Visa.Vstore { elems; _ } -> List.concat_map (of_op ~write:true) elems
  | Visa.Vgather { srcs; _ } -> List.concat_map of_src srcs
  | Visa.Vbroadcast { src; _ } -> of_src src
  | Visa.Vunpack { dsts; _ } ->
      List.concat_map
        (function
          | Some (Visa.To_mem op) -> of_op ~write:true op
          | Some (Visa.To_reg _) | None -> [])
        dsts
  | Visa.Sstmt s ->
      of_op ~write:true s.Stmt.lhs
      @ List.concat_map (of_op ~write:false) (Expr.leaves s.Stmt.rhs)
  | Visa.Vload_scalars _ | Visa.Vstore_scalars _ | Visa.Vpermute _
  | Visa.Vshuffle2 _ | Visa.Vbin _ | Visa.Vun _ | Visa.Vspill _ | Visa.Vreload _
    ->
      []

(* Scalar names an instruction touches outside Sstmt statements —
   these disqualify a reduction candidate (its accumulator may only
   live in its own update chain). *)
let instr_scalar_touches (i : Visa.instr) =
  let of_src = function Visa.Reg v -> [ v ] | Visa.Imm _ | Visa.Mem _ -> [] in
  match i with
  | Visa.Vgather { srcs; _ } -> List.concat_map of_src srcs
  | Visa.Vbroadcast { src; _ } -> of_src src
  | Visa.Vunpack { dsts; _ } ->
      List.filter_map
        (function Some (Visa.To_reg v) -> Some v | _ -> None)
        dsts
  | Visa.Vload_scalars { sources; _ } -> sources
  | Visa.Vstore_scalars { targets; _ } -> targets
  | Visa.Sstmt _ | Visa.Vload _ | Visa.Vstore _ | Visa.Vpermute _
  | Visa.Vshuffle2 _ | Visa.Vbin _ | Visa.Vun _ | Visa.Vspill _ | Visa.Vreload _
    ->
      []

let collect ~box0 items =
  let accesses = ref [] in
  let sstmts = ref [] in
  let foreign = ref [] in
  let wscalars = ref [] in
  let rec go ~box items =
    List.iter
      (function
        | Visa.Block instrs ->
            List.iter
              (fun (i : Visa.instr) ->
                List.iter
                  (fun (base, idxs, write) ->
                    accesses :=
                      { Depend.stmt = 0; base; idxs; write; box } :: !accesses)
                  (instr_elems i);
                foreign := instr_scalar_touches i @ !foreign;
                match i with
                | Visa.Sstmt s ->
                    sstmts := s :: !sstmts;
                    (match s.Stmt.lhs with
                    | Operand.Scalar v -> wscalars := add !wscalars v
                    | Operand.Const _ | Operand.Elem _ -> ())
                | Visa.Vunpack { dsts; _ } ->
                    List.iter
                      (function
                        | Some (Visa.To_reg v) -> wscalars := add !wscalars v
                        | _ -> ())
                      dsts
                | Visa.Vstore_scalars { targets; _ } ->
                    List.iter (fun v -> wscalars := add !wscalars v) targets
                | _ -> ())
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
  (List.rev !accesses, List.rev !sstmts, !foreign, !wscalars)

(* Written-before-read replay over the Visa tree for the scalars that
   are neither reductions nor proven safe otherwise. *)
let check_scalar_read ~wscalars ~exempt ~bound ~written v =
  if
    (not (List.mem v bound))
    && List.mem v wscalars
    && (not (List.mem v exempt))
    && not (List.mem v !written)
  then raise (Unsafe ("par-scalar:" ^ v))

let check_vsrc ~wscalars ~exempt ~bound ~written = function
  | Visa.Reg v -> check_scalar_read ~wscalars ~exempt ~bound ~written v
  | Visa.Imm _ | Visa.Mem _ -> ()

let check_instr ~wscalars ~exempt ~bound ~written (i : Visa.instr) =
  match i with
  | Visa.Vgather { srcs; _ } ->
      List.iter (check_vsrc ~wscalars ~exempt ~bound ~written) srcs
  | Visa.Vbroadcast { src; _ } ->
      check_vsrc ~wscalars ~exempt ~bound ~written src
  | Visa.Vunpack { dsts; _ } ->
      List.iter
        (function
          | Some (Visa.To_reg v) -> written := add !written v
          | Some (Visa.To_mem _) | None -> ())
        dsts
  | Visa.Vload_scalars { sources; _ } ->
      List.iter (check_scalar_read ~wscalars ~exempt ~bound ~written) sources
  | Visa.Vstore_scalars { targets; _ } ->
      List.iter (fun v -> written := add !written v) targets
  | Visa.Sstmt s -> (
      List.iter
        (function
          | Operand.Scalar v ->
              check_scalar_read ~wscalars ~exempt ~bound ~written v
          | Operand.Const _ | Operand.Elem _ -> ())
        (Expr.leaves s.Stmt.rhs);
      match s.Stmt.lhs with
      | Operand.Scalar v -> written := add !written v
      | Operand.Const _ | Operand.Elem _ -> ())
  | Visa.Vload _ | Visa.Vstore _ | Visa.Vpermute _ | Visa.Vshuffle2 _
  | Visa.Vbin _ | Visa.Vun _ | Visa.Vspill _ | Visa.Vreload _ ->
      ()

let rec check_items ~wscalars ~exempt ~bound ~written items =
  List.iter
    (function
      | Visa.Block instrs ->
          List.iter (check_instr ~wscalars ~exempt ~bound ~written) instrs
      | Visa.Loop l ->
          let inner = ref !written in
          check_items ~wscalars ~exempt ~bound:(l.Visa.index :: bound)
            ~written:inner l.Visa.body;
          if trip_at_least_once ~lo:l.Visa.lo ~hi:l.Visa.hi then
            written := !inner)
    items

let analyze (prog : Visa.program) =
  match prog.Visa.body with
  | [ Visa.Loop l ] -> begin
      let pvar = l.Visa.index in
      let box0 =
        Depend.Box.add Depend.Box.empty pvar
          (Depend.Box.of_bounds ~lo:l.Visa.lo ~hi:l.Visa.hi ~step:l.Visa.step)
      in
      let accesses, sstmts, foreign, wscalars = collect ~box0 l.Visa.body in
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
        let exempt = List.map fst reductions in
        check_items ~wscalars ~exempt ~bound:[ pvar ] ~written:(ref [])
          l.Visa.body;
        reductions
      with
      | reductions -> Parallel { reductions }
      | exception Unsafe reason -> Serial reason
    end
  | _ -> Serial "par-shape"
