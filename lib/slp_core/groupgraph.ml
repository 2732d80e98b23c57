module Graph = Slp_util.Graph

type elimination = Max_degree | Arbitrary

let pack_types_of packs = Pack.Set.of_list packs

(* The auxiliary graph for [cand] after conflict elimination: VP nodes
   matching [pack_types], excluding the candidate's own nodes and nodes
   of conflicting candidates, with a maximal conflict-free subset
   retained. *)
let auxiliary_survivors ~vp ~conflict ~elimination ~pack_types ~cand =
  let cid = cand.Candidate.cid in
  let selected =
    Packgraph.matching vp ~pack_types ~exclude_owner:cid ~compatible:(fun owner ->
        not (conflict owner cid))
  in
  (* Build the auxiliary graph over the selected nodes with VP edges. *)
  let ag = Graph.Undirected.create () in
  List.iter
    (fun (n : Packgraph.node) -> Graph.Undirected.add_node ag n.Packgraph.nid n)
    selected;
  List.iter
    (fun (a, b) -> Graph.Undirected.add_edge ag a b)
    (Packgraph.edges_among vp selected);
  (* Greedy conflict elimination: drop nodes until edgeless. *)
  let pick_victim () =
    match elimination with
    | Max_degree -> Graph.Undirected.max_degree_node ag
    | Arbitrary ->
        List.find_opt (fun id -> Graph.Undirected.degree ag id > 0) (Graph.Undirected.nodes ag)
  in
  let rec eliminate () =
    if not (Graph.Undirected.is_edgeless ag) then begin
      (match pick_victim () with
      | Some id -> Graph.Undirected.remove_node ag id
      | None -> ());
      eliminate ()
    end
  in
  eliminate ();
  List.map (Graph.Undirected.label ag) (Graph.Undirected.nodes ag)

let weight ~vp ~conflict ~elimination ~decided_packs ~cand =
  let all_packs = decided_packs @ cand.Candidate.packs in
  let pack_types = pack_types_of all_packs in
  if Pack.Set.is_empty pack_types then 0.0
  else begin
    let survivors = auxiliary_survivors ~vp ~conflict ~elimination ~pack_types ~cand in
    (* The reuse of type t is N_t - 1, where N_t counts t among the
       survivors and among [all_packs].  Every survivor's pack and every
       pack of [all_packs] is one of [pack_types], so the sum over the
       types is a sum of lengths. *)
    let types = Pack.Set.cardinal pack_types in
    let total_reuse = List.length survivors + List.length all_packs - types in
    float_of_int total_reuse /. float_of_int types
  end
