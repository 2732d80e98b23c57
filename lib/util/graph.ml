(* Imperative graphs over integer node identifiers.  See graph.mli. *)

module Int_set = Set.Make (Int)

module Undirected = struct
  type 'a node = { mutable label : 'a; mutable adj : (int, float) Hashtbl.t }
  (* [adj] maps neighbour id -> edge weight; symmetric by construction. *)

  type 'a t = { nodes : (int, 'a node) Hashtbl.t }

  let create () = { nodes = Hashtbl.create 64 }

  let find_node g id =
    match Hashtbl.find_opt g.nodes id with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Graph.Undirected: unknown node %d" id)

  let add_node g id label =
    match Hashtbl.find_opt g.nodes id with
    | Some n -> n.label <- label
    | None -> Hashtbl.replace g.nodes id { label; adj = Hashtbl.create 4 }

  let mem_node g id = Hashtbl.mem g.nodes id

  let add_edge ?(weight = 0.0) g u v =
    if u = v then invalid_arg "Graph.Undirected.add_edge: self loop";
    let nu = find_node g u and nv = find_node g v in
    Hashtbl.replace nu.adj v weight;
    Hashtbl.replace nv.adj u weight

  let remove_edge g u v =
    match (Hashtbl.find_opt g.nodes u, Hashtbl.find_opt g.nodes v) with
    | Some nu, Some nv ->
        Hashtbl.remove nu.adj v;
        Hashtbl.remove nv.adj u
    | _ -> ()

  let remove_node g id =
    match Hashtbl.find_opt g.nodes id with
    | None -> ()
    | Some n ->
        Hashtbl.iter
          (fun nb _ ->
            match Hashtbl.find_opt g.nodes nb with
            | Some nn -> Hashtbl.remove nn.adj id
            | None -> ())
          n.adj;
        Hashtbl.remove g.nodes id

  let mem_edge g u v =
    match Hashtbl.find_opt g.nodes u with
    | Some n -> Hashtbl.mem n.adj v
    | None -> false

  let label g id = (find_node g id).label

  let set_weight g u v w =
    if not (mem_edge g u v) then
      invalid_arg "Graph.Undirected.set_weight: no such edge";
    let nu = find_node g u and nv = find_node g v in
    Hashtbl.replace nu.adj v w;
    Hashtbl.replace nv.adj u w

  let weight g u v =
    match Hashtbl.find_opt (find_node g u).adj v with
    | Some w -> w
    | None -> invalid_arg "Graph.Undirected.weight: no such edge"

  let degree g id = Hashtbl.length (find_node g id).adj

  let neighbours g id =
    Hashtbl.fold (fun nb _ acc -> nb :: acc) (find_node g id).adj []
    |> List.sort compare

  let nodes g = Hashtbl.fold (fun id _ acc -> id :: acc) g.nodes [] |> List.sort compare

  let edges g =
    Hashtbl.fold
      (fun u n acc ->
        Hashtbl.fold (fun v w acc -> if u <= v then (u, v, w) :: acc else acc) n.adj acc)
      g.nodes []
    |> List.sort compare

  let node_count g = Hashtbl.length g.nodes

  let edge_count g =
    let total = Hashtbl.fold (fun _ n acc -> acc + Hashtbl.length n.adj) g.nodes 0 in
    total / 2

  let is_edgeless g = edge_count g = 0

  let max_degree_node g =
    Hashtbl.fold
      (fun id n best ->
        let d = Hashtbl.length n.adj in
        if d = 0 then best
        else
          match best with
          | Some (bid, bd) when bd > d || (bd = d && bid < id) -> best
          | _ -> Some (id, d))
      g.nodes None
    |> Option.map fst

  let max_weight_edge g =
    List.fold_left
      (fun best (u, v, w) ->
        match best with
        | Some (bu, bv, bw) when bw > w || (bw = w && (bu, bv) < (u, v)) -> best
        | _ -> Some (u, v, w))
      None (edges g)

  let copy g =
    let g' = create () in
    Hashtbl.iter (fun id n -> add_node g' id n.label) g.nodes;
    Hashtbl.iter
      (fun u n -> Hashtbl.iter (fun v w -> if u < v then add_edge ~weight:w g' u v) n.adj)
      g.nodes;
    g'

  let fold_nodes g ~init ~f =
    List.fold_left (fun acc id -> f acc id (label g id)) init (nodes g)
end

module Directed = struct
  type 'a node = {
    mutable label : 'a;
    mutable succ : Int_set.t;
    mutable pred : Int_set.t;
  }

  type 'a t = { nodes : (int, 'a node) Hashtbl.t }

  let create () = { nodes = Hashtbl.create 64 }

  let find_node g id =
    match Hashtbl.find_opt g.nodes id with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Graph.Directed: unknown node %d" id)

  let add_node g id label =
    match Hashtbl.find_opt g.nodes id with
    | Some n -> n.label <- label
    | None ->
        Hashtbl.replace g.nodes id { label; succ = Int_set.empty; pred = Int_set.empty }

  let mem_node g id = Hashtbl.mem g.nodes id

  let add_edge g u v =
    if u = v then invalid_arg "Graph.Directed.add_edge: self loop";
    let nu = find_node g u and nv = find_node g v in
    nu.succ <- Int_set.add v nu.succ;
    nv.pred <- Int_set.add u nv.pred

  let remove_node g id =
    match Hashtbl.find_opt g.nodes id with
    | None -> ()
    | Some n ->
        let detach other f =
          match Hashtbl.find_opt g.nodes other with
          | Some nn -> f nn
          | None -> ()
        in
        Int_set.iter (fun s -> detach s (fun nn -> nn.pred <- Int_set.remove id nn.pred)) n.succ;
        Int_set.iter (fun p -> detach p (fun nn -> nn.succ <- Int_set.remove id nn.succ)) n.pred;
        Hashtbl.remove g.nodes id

  let mem_edge g u v =
    match Hashtbl.find_opt g.nodes u with
    | Some n -> Int_set.mem v n.succ
    | None -> false

  let label g id = (find_node g id).label
  let succs g id = Int_set.elements (find_node g id).succ
  let preds g id = Int_set.elements (find_node g id).pred
  let in_degree g id = Int_set.cardinal (find_node g id).pred
  let out_degree g id = Int_set.cardinal (find_node g id).succ
  let nodes g = Hashtbl.fold (fun id _ acc -> id :: acc) g.nodes [] |> List.sort compare
  let node_count g = Hashtbl.length g.nodes

  let edge_count g =
    Hashtbl.fold (fun _ n acc -> acc + Int_set.cardinal n.succ) g.nodes 0

  let sources g =
    nodes g |> List.filter (fun id -> in_degree g id = 0)

  let reachable g u v =
    if not (mem_node g u && mem_node g v) then false
    else begin
      let visited = Hashtbl.create 16 in
      let rec dfs x =
        x = v
        || (not (Hashtbl.mem visited x)
           && begin
                Hashtbl.replace visited x ();
                Int_set.exists dfs (find_node g x).succ
              end)
      in
      dfs u
    end

  let topological_order g =
    let indeg = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace indeg id (in_degree g id)) (nodes g);
    let module Pq = Set.Make (Int) in
    let ready = ref (Pq.of_list (sources g)) in
    let order = ref [] in
    let count = ref 0 in
    while not (Pq.is_empty !ready) do
      let id = Pq.min_elt !ready in
      ready := Pq.remove id !ready;
      order := id :: !order;
      incr count;
      List.iter
        (fun s ->
          let d = Hashtbl.find indeg s - 1 in
          Hashtbl.replace indeg s d;
          if d = 0 then ready := Pq.add s !ready)
        (succs g id)
    done;
    if !count = node_count g then Some (List.rev !order) else None

  let has_cycle g = Option.is_none (topological_order g)

  let copy g =
    let g' = create () in
    Hashtbl.iter (fun id n -> add_node g' id n.label) g.nodes;
    Hashtbl.iter (fun u n -> Int_set.iter (fun v -> add_edge g' u v) n.succ) g.nodes;
    g'
end

let acyclic succs =
  let n = Array.length succs in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) succs;
  let rec drain seen = function
    | [] -> seen = n
    | u :: ready ->
        drain (seen + 1)
          (List.fold_left
             (fun ready v ->
               indeg.(v) <- indeg.(v) - 1;
               if indeg.(v) = 0 then v :: ready else ready)
             ready succs.(u))
  in
  drain 0 (List.filter (fun u -> indeg.(u) = 0) (List.init n Fun.id))
