open Slp_ir
module Graph = Slp_util.Graph
module E = Slp_util.Slp_error
module Units = Slp_core.Units
module Config = Slp_core.Config
module Grouping = Slp_core.Grouping
module Schedule = Slp_core.Schedule
module Chains = Slp_analysis.Chains

let stmt_elem_ty ~env (s : Stmt.t) =
  match Env.operand_ty env s.Stmt.lhs with Some ty -> ty | None -> assert false

let group ~dep_pairs ~env ~config (block : Block.t) =
  let stmts = Array.of_list block.Block.stmts in
  let units = List.map (Units.of_stmt ~env) block.Block.stmts in
  let deps = Units.Deps.build ~dep_pairs units in
  let chains = Chains.compute block in
  let row_size = Env.row_size env in
  let packed = Hashtbl.create 16 in
  let decided = ref [] in
  let packs = ref [] in
  let queue = Queue.create () in
  let find id = Block.find block id in
  let commit lanes =
    List.iter (fun s -> Hashtbl.replace packed s ()) lanes;
    (match lanes with
    | a :: rest -> List.iter (fun b -> decided := (a, b) :: !decided) rest
    | [] -> ());
    packs := !packs @ [ lanes ];
    Queue.add lanes queue
  in
  let can_pair s t =
    s <> t
    && (not (Hashtbl.mem packed s))
    && (not (Hashtbl.mem packed t))
    && Stmt.isomorphic ~env (find s) (find t)
    && Config.max_lanes config (stmt_elem_ty ~env (find s)) >= 2
    && Units.Deps.mergeable deps s t
    && Units.Deps.merged_acyclic deps ((s, t) :: !decided)
  in
  (* Seed phase: adjacent memory references, greedy in program order
     (the local heuristic the holistic framework replaces). *)
  let adjacency_order s t =
    (* Some position holds adjacent array elements: lane order follows
       the addresses. *)
    let ps = Stmt.positions (find s) and pt = Stmt.positions (find t) in
    let rec scan = function
      | [], [] -> None
      | a :: ra, b :: rb ->
          if Operand.adjacent_in_memory ~row_size a b then Some (s, t)
          else if Operand.adjacent_in_memory ~row_size b a then Some (t, s)
          else scan (ra, rb)
      | _ -> None
    in
    scan (ps, pt)
  in
  let n = Array.length stmts in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s = stmts.(i).Stmt.id and t = stmts.(j).Stmt.id in
      if can_pair s t then
        match adjacency_order s t with
        | Some (first, second) -> commit [ first; second ]
        | None -> ()
    done
  done;
  (* Extension phase: def-use and use-def chains from committed packs. *)
  let try_pair u v = if can_pair u v then commit [ u; v ] in
  let extend lanes =
    match lanes with
    | [ s; t ] -> begin
        (* def-use: statements consuming the packed definitions at the
           same operand position. *)
        (match (Stmt.def (find s), Stmt.def (find t)) with
        | Operand.Scalar x, Operand.Scalar y when not (String.equal x y) ->
            let consumers def_var def_site =
              List.filter
                (fun uid ->
                  match Chains.reaching_def chains ~var:def_var ~before:uid with
                  | Some d -> d = def_site
                  | None -> false)
                (Chains.def_use chains def_site)
            in
            let us = consumers x s and vs = consumers y t in
            List.iter
              (fun u ->
                List.iter
                  (fun v ->
                    if u <> v then begin
                      let pu = Stmt.positions (find u) and pv = Stmt.positions (find v) in
                      (* same-position use required *)
                      if
                        List.length pu = List.length pv
                        && List.exists2
                             (fun a b ->
                               Operand.equal a (Operand.Scalar x)
                               && Operand.equal b (Operand.Scalar y))
                             pu pv
                      then try_pair u v
                    end)
                  vs)
              us
        | _ -> ());
        (* use-def: producers of the scalars read at the same position. *)
        let ps = Stmt.positions (find s) and pt = Stmt.positions (find t) in
        List.iteri
          (fun k a ->
            if k > 0 then
              match (a, List.nth pt k) with
              | Operand.Scalar x, Operand.Scalar y when not (String.equal x y) -> begin
                  match
                    ( Chains.reaching_def chains ~var:x ~before:s,
                      Chains.reaching_def chains ~var:y ~before:t )
                  with
                  | Some u, Some v when u <> v -> try_pair u v
                  | _ -> ()
                end
              | _ -> ())
          ps
      end
    | _ -> ()
  in
  (* The queue only ever holds pairs here; extension of a pair can
     enqueue further pairs (transitive chain following). *)
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some lanes ->
        extend lanes;
        drain ()
  in
  drain ();
  (* Combination phase: merge address-consecutive packs while the
     datapath allows. *)
  let max_lanes_of lanes =
    Config.max_lanes config (stmt_elem_ty ~env (find (List.hd lanes)))
  in
  let continues p q =
    (* q's first lane continues p's last lane at some memory position *)
    let last_p = List.nth p (List.length p - 1) and first_q = List.hd q in
    let pa = Stmt.positions (find last_p) and pb = Stmt.positions (find first_q) in
    List.length pa = List.length pb
    && List.exists2 (fun a b -> Operand.adjacent_in_memory ~row_size a b) pa pb
  in
  (* Every member of the merged pack must stay isomorphic to its first
     lane (constraint 3): adjacency of the seam lanes says nothing
     about the shapes across packs — two internally-isomorphic pairs
     over address-consecutive stores can still differ (e.g. a constant
     store next to a negation). *)
  let isomorphic_packs p q =
    let first = find (List.hd p) in
    List.for_all (fun m -> Stmt.isomorphic ~env first (find m)) q
  in
  (* Members of the merged pack must stay pairwise independent
     (constraint 1): the contraction test below collapses intra-pack
     dependences into self-loops and cannot see them — e.g. two
     unrolled copies storing to the same element (WAW) would otherwise
     merge and fail scheduling. *)
  let independent_packs p q =
    List.for_all
      (fun u ->
        List.for_all
          (fun v -> (not (Units.Deps.depends deps u v)) && not (Units.Deps.depends deps v u))
          q)
      p
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let rec merge_scan before = function
      | [] -> ()
      | p :: rest ->
          let candidate =
            List.find_opt
              (fun q ->
                List.length q = List.length p
                && List.length p + List.length q <= max_lanes_of p
                && continues p q
                && isomorphic_packs p q
                && independent_packs p q
                && Units.Deps.merged_acyclic deps
                     ((List.hd p, List.hd q) :: !decided))
              rest
          in
          (match candidate with
          | Some q ->
              decided := (List.hd p, List.hd q) :: !decided;
              let merged = p @ q in
              packs :=
                List.rev before
                @ [ merged ]
                @ List.filter (fun r -> r != q) rest;
              changed := true
          | None -> merge_scan (p :: before) rest)
    in
    merge_scan [] !packs
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

let schedule ~config facts (grouping : Grouping.result) =
  (* Dependence-respecting program order; lane order as committed.
     Group nodes: one per SIMD group, then one per single; gid = index. *)
  let singles = List.map (fun s -> [ s ]) grouping.Grouping.singles in
  let members = Array.of_list (grouping.Grouping.groups @ singles) in
  let n = Array.length members in
  let owner = Hashtbl.create 32 in
  Array.iteri (fun gid ms -> List.iter (fun m -> Hashtbl.replace owner m gid) ms) members;
  (* The group DAG, as successor lists and in-degrees. *)
  let succs = Array.make n [] and indeg = Array.make n 0 in
  List.iter
    (fun (p, q) ->
      let gp = Hashtbl.find owner p and gq = Hashtbl.find owner q in
      if gp <> gq && not (List.mem gq succs.(gp)) then begin
        succs.(gp) <- gq :: succs.(gp);
        indeg.(gq) <- indeg.(gq) + 1
      end)
    (Schedule.Facts.deps facts);
  if not (Graph.acyclic succs) then
    E.fail ~pass:E.Scheduling E.Schedule_failed "Larsen.schedule: packs are not schedulable";
  (* Emit the ready group whose smallest member id is smallest, ties
     to the lower gid. *)
  let first = Array.map (List.fold_left min max_int) members in
  let emitted = Array.make n false in
  let items = ref [] in
  for _ = 1 to n do
    let best = ref (-1) in
    for gid = 0 to n - 1 do
      let ready = (not emitted.(gid)) && indeg.(gid) = 0 in
      if ready && (!best < 0 || first.(gid) < first.(!best)) then best := gid
    done;
    let gid = !best in
    emitted.(gid) <- true;
    List.iter (fun s -> indeg.(s) <- indeg.(s) - 1) succs.(gid);
    items :=
      (match members.(gid) with [ s ] -> Schedule.Single s | ms -> Schedule.Superword ms)
      :: !items
  done;
  Schedule.analyze ~config facts (List.rev !items)
