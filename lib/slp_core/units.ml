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

let isomorphic a b =
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
     ascending and without repeats, and [direct] is the same relation
     as an [n * n] byte matrix (byte [i * n + j] is 1 when [j] is in
     [succs.(i)]).  [reach.(i)] is empty until [mergeable] first asks
     about unit [i]; then it is the [n]-byte row of the units [i]
     reaches (itself included).  [n] is at most the block's statement
     count. *)
  type unit_graph = {
    index : (int, int) Hashtbl.t;  (** uid -> index *)
    succs : int array array;
    direct : Bytes.t;
    reach : Bytes.t array;
  }

  let build ~dep_pairs units =
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
    let n = Hashtbl.length index in
    let out = Array.make n [] in
    List.iter
      (fun (p, q) ->
        match (Hashtbl.find_opt owner p, Hashtbl.find_opt owner q) with
        | Some ip, Some iq when ip <> iq -> out.(ip) <- iq :: out.(ip)
        | _ -> ())
      dep_pairs;
    let succs = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) out in
    let direct = Bytes.make (n * n) '\000' in
    Array.iteri (fun i js -> Array.iter (fun j -> Bytes.set direct ((i * n) + j) '\001') js) succs;
    { index; succs; direct; reach = Array.make n Bytes.empty }

  let index_of t uid =
    match Hashtbl.find_opt t.index uid with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Units.Deps: unknown unit %d" uid)

  let depends_at t i j = Bytes.get t.direct ((i * Array.length t.succs) + j) <> '\000'

  let depends t u v =
    match (Hashtbl.find_opt t.index u, Hashtbl.find_opt t.index v) with
    | Some iu, Some iv -> depends_at t iu iv
    | _ -> false

  let reach_row t i =
    let row = t.reach.(i) in
    if Bytes.length row > 0 then row
    else begin
      let row = Bytes.make (Array.length t.succs) '\000' in
      let rec visit x =
        if Bytes.get row x = '\000' then begin
          Bytes.set row x '\001';
          Array.iter visit t.succs.(x)
        end
      in
      visit i;
      t.reach.(i) <- row;
      row
    end

  let mergeable t u v =
    u <> v
    &&
    match (Hashtbl.find_opt t.index u, Hashtbl.find_opt t.index v) with
    | Some iu, Some iv ->
        Bytes.get (reach_row t iu) iv = '\000' && Bytes.get (reach_row t iv) iu = '\000'
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

  (* Joined parts by unit index: [cls.(i)] is the class of unit [i],
     the least index of its part ([i] itself while it is in none), and
     [members.(c)] the units of class [c].  [seen] and [stack] are the
     search's scratch; a class is seen when [seen.(c) = stamp]. *)
  type contraction = {
    graph : unit_graph;
    cls : int array;
    members : int array array;
    alone : int array array;
    seen : int array;
    mutable stamp : int;
    stack : int array;
  }

  let contraction graph =
    let n = Array.length graph.succs in
    let alone = Array.init n (fun i -> [| i |]) in
    {
      graph;
      cls = Array.init n Fun.id;
      members = Array.copy alone;
      alone;
      seen = Array.make n 0;
      stamp = 0;
      stack = Array.make n 0;
    }

  (* Is class [target] reachable from a successor of its own members,
     through other classes?  Every class enters the stack at most
     once. *)
  let reaches_itself c target =
    c.stamp <- c.stamp + 1;
    let stamp = c.stamp and succs = c.graph.succs and cls = c.cls and stack = c.stack in
    let top = ref 1 and found = ref false in
    stack.(0) <- target;
    while (not !found) && !top > 0 do
      decr top;
      let from = stack.(!top) in
      let ms = c.members.(from) in
      for a = 0 to Array.length ms - 1 do
        let ys = succs.(ms.(a)) in
        for k = 0 to Array.length ys - 1 do
          let cy = cls.(ys.(k)) in
          if cy = target then (if from <> target then found := true)
          else if c.seen.(cy) <> stamp then begin
            c.seen.(cy) <- stamp;
            stack.(!top) <- cy;
            incr top
          end
        done
      done
    done;
    !found

  let leave c part =
    for k = 0 to Array.length part - 1 do
      c.cls.(part.(k)) <- part.(k)
    done;
    c.members.(part.(0)) <- c.alone.(part.(0))

  let join c part =
    let head = part.(0) in
    for k = 0 to Array.length part - 1 do
      c.cls.(part.(k)) <- head
    done;
    c.members.(head) <- part;
    let cyclic = reaches_itself c head in
    if cyclic then leave c part;
    not cyclic
end
