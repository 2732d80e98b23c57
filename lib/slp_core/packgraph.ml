type node = { nid : int; pack : Pack.t; owner : int }

(* VP's edges are implied by [conflict] on the owners, and nodes leave
   the graph a whole owner at a time, so the graph is the set of live
   owners with their nodes.  [by_pack] maps each distinct pack to every
   node built with it (removed ones included; liveness is checked on
   lookup), so [matching] visits only the nodes it can select. *)
type t = {
  conflict : int -> int -> bool;
  live : (int, node list) Hashtbl.t;  (** owner -> its nodes; live owners only *)
  by_pack : node list Pack.Map.t;
}

let build ~candidates ~conflict =
  let live = Hashtbl.create 64 in
  let by_pack = ref Pack.Map.empty in
  let next = ref 0 in
  List.iter
    (fun (c : Candidate.t) ->
      let owner = c.Candidate.cid in
      let my_nodes =
        List.map
          (fun pack ->
            let node = { nid = !next; pack; owner } in
            incr next;
            by_pack :=
              Pack.Map.update pack
                (fun l -> Some (node :: Option.value l ~default:[]))
                !by_pack;
            node)
          c.Candidate.packs
      in
      if my_nodes <> [] then Hashtbl.replace live owner my_nodes)
    candidates;
  { conflict; live; by_pack = !by_pack }

let by_nid = List.sort (fun a b -> Int.compare a.nid b.nid)
let nodes t = by_nid (Hashtbl.fold (fun _ ns acc -> List.rev_append ns acc) t.live [])
let node_count t = Hashtbl.fold (fun _ ns acc -> acc + List.length ns) t.live 0

let edge_count t =
  let owners = Hashtbl.fold (fun o ns acc -> (o, List.length ns) :: acc) t.live [] in
  let rec pairs acc = function
    | [] -> acc
    | (a, na) :: rest ->
        pairs
          (List.fold_left
             (fun acc (b, nb) -> if t.conflict a b then acc + (na * nb) else acc)
             acc rest)
          rest
  in
  pairs 0 owners

let alive t cid = Hashtbl.mem t.live cid

let matching t ~pack_types ~exclude_owner ~compatible =
  Pack.Set.fold
    (fun pack acc ->
      match Pack.Map.find_opt pack t.by_pack with
      | None -> acc
      | Some carriers ->
          List.fold_left
            (fun acc n ->
              if n.owner <> exclude_owner && alive t n.owner && compatible n.owner
              then n :: acc
              else acc)
            acc carriers)
    pack_types []
  |> by_nid

(* Asks [conflict] once per pair of owners.  An owner's nids are
   consecutive, so a selection in nid order keeps each owner's nodes
   together in one run. *)
let edges_among t selected =
  let runs =
    List.fold_right
      (fun n runs ->
        match runs with
        | (o, nids) :: rest when o = n.owner -> (o, n.nid :: nids) :: rest
        | _ -> (n.owner, [ n.nid ]) :: runs)
      selected []
  in
  let join acc xs ys =
    List.fold_left (fun acc x -> List.fold_left (fun acc y -> (x, y) :: acc) acc ys) acc xs
  in
  let rec pairs acc = function
    | [] -> acc
    | (a, xs) :: rest ->
        let acc =
          List.fold_left
            (fun acc (b, ys) -> if a <> b && t.conflict a b then join acc xs ys else acc)
            acc rest
        in
        pairs acc rest
  in
  pairs [] runs

let remove_decided t cid =
  if alive t cid then
    Hashtbl.fold (fun o _ acc -> if o = cid || t.conflict cid o then o :: acc else acc) t.live []
    |> List.iter (Hashtbl.remove t.live)

let remove_owner t cid = Hashtbl.remove t.live cid

let pp ppf t =
  Format.fprintf ppf "@[<v>VP: %d nodes, %d edges@," (node_count t) (edge_count t);
  List.iter
    (fun n -> Format.fprintf ppf "  n%d %a (C%d)@," n.nid Pack.pp n.pack n.owner)
    (nodes t);
  Format.fprintf ppf "@]"
