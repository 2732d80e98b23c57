type t = {
  cid : int;
  u1 : int;
  u2 : int;
  i1 : int;
  i2 : int;
  packs : Pack.t list;
  adjacency : int;
  scattered_store : bool;
}

(* Tie-break score.  A contiguous store target dominates (a scattered
   store is unfixable, while scattered loads can be repaired by the
   data layout stage); among candidates whose stores are equivalent,
   contiguous source packs are preferred. *)
let adjacency_score ~env packs =
  let contiguous p = Slp_analysis.Alignment.contiguous_pack ~env (Pack.operands p) in
  match packs with
  | dest :: sources ->
      if contiguous dest then 1_000_000
      else List.length (List.filter contiguous sources)
  | [] -> 0

let merged_packs (a : Units.t) (b : Units.t) =
  Array.to_list (Array.map2 Pack.union a.Units.positions b.Units.positions)
  |> List.filter (fun p -> not (Pack.all_constant p))

let find ~env ~config ~units ~deps =
  let sorted =
    List.sort (fun (a : Units.t) b -> compare a.Units.uid b.Units.uid) units
    |> List.map (fun (u : Units.t) -> (u, Units.Deps.index_of deps u.Units.uid))
  in
  let next = ref 0 in
  let rec pairs acc = function
    | [] -> List.rev acc
    | ((u : Units.t), iu) :: rest ->
        let acc =
          List.fold_left
            (fun acc ((v : Units.t), iv) ->
              if
                Units.isomorphic u v
                && Units.width_bits u + Units.width_bits v
                   <= config.Config.datapath_bits
                && Units.Deps.mergeable deps u.Units.uid v.Units.uid
              then begin
                let cid = !next in
                incr next;
                let packs = merged_packs u v in
                let adjacency = adjacency_score ~env packs in
                {
                  cid;
                  u1 = u.Units.uid;
                  u2 = v.Units.uid;
                  i1 = iu;
                  i2 = iv;
                  packs;
                  adjacency;
                  scattered_store = u.Units.mem_dest && adjacency < 1_000_000;
                }
                :: acc
              end
              else acc)
            acc rest
        in
        pairs acc rest
  in
  pairs [] sorted

let units_of c = (c.u1, c.u2)

let shares_unit a b = a.u1 = b.u1 || a.u1 = b.u2 || a.u2 = b.u1 || a.u2 = b.u2

(* Some unit of the pair [x1, x2] depends directly on some unit of the
   pair [y1, y2], by dense unit index. *)
let depends_on deps x1 x2 y1 y2 =
  Units.Deps.depends_at deps x1 y1
  || Units.Deps.depends_at deps x1 y2
  || Units.Deps.depends_at deps x2 y1
  || Units.Deps.depends_at deps x2 y2

let conflicts ~deps a b =
  shares_unit a b
  || (depends_on deps a.i1 a.i2 b.i1 b.i2 && depends_on deps b.i1 b.i2 a.i1 a.i2)

let pp ppf c =
  Format.fprintf ppf "C%d{u%d,u%d}" c.cid c.u1 c.u2;
  List.iter (fun p -> Format.fprintf ppf " %a" Pack.pp p) c.packs
