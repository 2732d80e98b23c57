open Slp_ir
module Graph = Slp_util.Graph

type t = {
  uid : int;
  members : int list;
  shape : Expr.t;
  positions : Pack.t array;
  elem_ty : Types.scalar_ty;
  mem_dest : bool;  (** Store target is an array element. *)
}

let stmt_elem_ty ~env (s : Stmt.t) =
  match Env.operand_ty env s.Stmt.lhs with
  | Some ty -> ty
  | None -> assert false (* lhs is never a constant *)

let of_stmt ~env (s : Stmt.t) =
  {
    uid = s.Stmt.id;
    members = [ s.Stmt.id ];
    shape = s.Stmt.rhs;
    positions =
      Array.of_list (List.map (fun op -> Pack.of_operands [ op ]) (Stmt.positions s));
    elem_ty = stmt_elem_ty ~env s;
    mem_dest = (match s.Stmt.lhs with Operand.Elem _ -> true | _ -> false);
  }

let merge ~uid a b =
  if Array.length a.positions <> Array.length b.positions then
    invalid_arg "Units.merge: position count mismatch";
  {
    uid;
    members = List.sort_uniq compare (a.members @ b.members);
    shape = a.shape;
    positions = Array.map2 Pack.union a.positions b.positions;
    elem_ty = a.elem_ty;
    mem_dest = a.mem_dest;
  }

let lane_count u = List.length u.members
let width_bits u = lane_count u * Types.bits u.elem_ty

let isomorphic ~env:_ a b =
  a.mem_dest = b.mem_dest
  && Expr.same_shape a.shape b.shape
  && a.elem_ty = b.elem_ty
  && lane_count a = lane_count b
  && Array.length a.positions = Array.length b.positions

let pp ppf u =
  Format.fprintf ppf "u%d{S%s} " u.uid
    (String.concat ",S" (List.map string_of_int u.members));
  Array.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf " ";
      Pack.pp ppf p)
    u.positions

module Deps = struct
  (* The uid-level dependence DAG over dense indices, numbered in
     ascending uid order: [succs.(i)] holds the successors' indices,
     ascending and without repeats. *)
  type unit_graph = {
    index : (int, int) Hashtbl.t;  (** uid -> index *)
    succs : int array array;
  }

  let build ?dep_pairs (block : Block.t) units =
    let pairs =
      match dep_pairs with Some p -> p | None -> Block.dep_pairs block
    in
    let index = Hashtbl.create 32 in
    List.iteri
      (fun i uid -> Hashtbl.replace index uid i)
      (List.sort_uniq compare (List.map (fun u -> u.uid) units));
    let owner = Hashtbl.create 32 in
    List.iter
      (fun u ->
        let i = Hashtbl.find index u.uid in
        List.iter (fun sid -> Hashtbl.replace owner sid i) u.members)
      units;
    let out = Array.make (Hashtbl.length index) [] in
    List.iter
      (fun (p, q) ->
        match (Hashtbl.find_opt owner p, Hashtbl.find_opt owner q) with
        | Some ip, Some iq when ip <> iq -> out.(ip) <- iq :: out.(ip)
        | _ -> ())
      pairs;
    { index; succs = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) out }

  let index_of t uid =
    match Hashtbl.find_opt t.index uid with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Units.Deps: unknown unit %d" uid)

  let depends t u v =
    match (Hashtbl.find_opt t.index u, Hashtbl.find_opt t.index v) with
    | Some iu, Some iv -> Array.mem iv t.succs.(iu)
    | _ -> false

  let reachable t iu iv =
    let visited = Array.make (Array.length t.succs) false in
    let rec dfs x =
      x = iv
      || (not visited.(x))
         && begin
              visited.(x) <- true;
              Array.exists dfs t.succs.(x)
            end
    in
    dfs iu

  let mergeable t u v =
    u <> v
    &&
    match (Hashtbl.find_opt t.index u, Hashtbl.find_opt t.index v) with
    | Some iu, Some iv -> (not (reachable t iu iv)) && not (reachable t iv iu)
    | _ -> true

  let merged_acyclic t pairs =
    (* Contract each pair with an array union-find, then check the
       graph of class representatives. *)
    let n = Array.length t.succs in
    let parent = Array.init n Fun.id in
    let rec find x =
      let p = parent.(x) in
      if p = x then x
      else begin
        let r = find p in
        parent.(x) <- r;
        r
      end
    in
    List.iter
      (fun (a, b) ->
        let ra = find (index_of t a) and rb = find (index_of t b) in
        if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb)
      pairs;
    let out = Array.make n [] in
    Array.iteri
      (fun x ys ->
        let rx = find x in
        Array.iter
          (fun y ->
            let ry = find y in
            if rx <> ry then out.(rx) <- ry :: out.(rx))
          ys)
      t.succs;
    Graph.acyclic out
end
