open Slp_ir
module Units = Slp_core.Units
module Config = Slp_core.Config
module Grouping = Slp_core.Grouping

let stmt_elem_ty ~env (s : Stmt.t) =
  match Env.operand_ty env s.Stmt.lhs with Some ty -> ty | None -> assert false

(* Every position of the lane sequence must be contiguous memory, an
   identical scalar broadcast, or all-constant. *)
let lanes_vectorizable ~env block lanes =
  let row_size = Env.row_size env in
  let stmts = List.map (Block.find block) lanes in
  let npos = Stmt.position_count (List.hd stmts) in
  let ok = ref true in
  for pos = 0 to npos - 1 do
    let ops = List.map (fun s -> List.nth (Stmt.positions s) pos) stmts in
    let contiguous =
      let rec chain = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) ->
            Operand.adjacent_in_memory ~row_size a b && chain rest
      in
      (match ops with Operand.Elem _ :: _ -> chain ops | _ -> false)
    in
    let broadcast =
      match ops with
      | (Operand.Scalar _ as first) :: rest -> List.for_all (Operand.equal first) rest
      | _ -> false
    in
    let constant =
      List.for_all
        (function Operand.Const _ -> true | Operand.Scalar _ | Operand.Elem _ -> false)
        ops
    in
    if pos = 0 then begin
      (* Store target must be contiguous memory or a scalar pack is
         not vectorizable for this conservative scheme. *)
      if not contiguous then ok := false
    end
    else if not (contiguous || broadcast || constant) then ok := false
  done;
  !ok

let group ~dep_pairs ~env ~config (block : Block.t) =
  let stmts = Array.of_list block.Block.stmts in
  let units = List.map (Units.of_stmt ~env) block.Block.stmts in
  let deps = Units.Deps.build ~dep_pairs units in
  let n = Array.length stmts in
  let used = Hashtbl.create 16 in
  let decided = ref [] in
  let packs = ref [] in
  (* Greedy runs of maximal width starting at each unused statement. *)
  for i = 0 to n - 1 do
    let s = stmts.(i) in
    if not (Hashtbl.mem used s.Stmt.id) then begin
      let lanes_max = Config.max_lanes config (stmt_elem_ty ~env s) in
      let rec grow lanes width j =
        if width >= lanes_max || j >= n then List.rev lanes
        else begin
          let t = stmts.(j) in
          if
            (not (Hashtbl.mem used t.Stmt.id))
            && Stmt.isomorphic ~env s t
            && List.for_all (fun prev -> Units.Deps.mergeable deps prev t.Stmt.id) lanes
            && lanes_vectorizable ~env block (List.rev (t.Stmt.id :: lanes))
            && (* Contract the whole partial pack, not just its seam:
                  the pairs of the run under construction are not in
                  [decided] yet, and a cycle may run through a middle
                  lane. *)
            Units.Deps.merged_acyclic deps
              (List.map
                 (fun l -> (s.Stmt.id, l))
                 (t.Stmt.id :: List.filter (fun l -> l <> s.Stmt.id) lanes)
              @ !decided)
          then grow (t.Stmt.id :: lanes) (width + 1) (j + 1)
          else grow lanes width (j + 1)
        end
      in
      let run = grow [ s.Stmt.id ] 1 (i + 1) in
      if List.length run >= 2 then begin
        List.iter (fun id -> Hashtbl.replace used id ()) run;
        (match run with
        | a :: rest -> List.iter (fun b -> decided := (a, b) :: !decided) rest
        | [] -> ());
        packs := !packs @ [ run ]
      end
    end
  done;
  let grouped = List.concat !packs in
  let singles =
    List.filter_map
      (fun (s : Stmt.t) ->
        if List.mem s.Stmt.id grouped then None else Some s.Stmt.id)
      block.Block.stmts
  in
  {
    Grouping.groups = !packs;
    singles;
    rounds = (if !packs = [] then 0 else 1);
    decisions = List.length !decided;
  }
