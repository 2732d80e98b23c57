type selection = {
  mutable size : int;
  owners : int array;
  mult : int array;
  degree : int array;
  mutable types : int;
  mutable packs : int;
}

(* Nodes are not stored.  Each distinct pack gets a dense id, and the
   graph keeps every owner's pack ids, the owners carrying each id and
   the live owners; nodes leave a whole owner at a time, and two nodes
   are adjacent iff their owners conflict.  Owners are indexed by cid. *)
type t = {
  deps : Units.Deps.unit_graph;
  cands : Candidate.t option array;  (** By cid; ascending cid is node id order. *)
  owned : int array array;  (** By cid: its pack ids, in pack order. *)
  carriers : int array array;
      (** By pack id: the owners carrying it, one entry per occurrence.
          Only the first [carried.(p)] entries count; dead owners are
          swept out as scans meet them. *)
  carried : int array;
  live : bool array;  (** By cid. *)
  decided_type : bool array;  (** By pack id: a pack of a decided candidate. *)
  mutable decided_packs : int;  (** Decided packs, with multiplicity. *)
  mutable decided_types : int;  (** Distinct decided packs. *)
  decided_scan : int array;
      (** The first [decided_live] entries: the decided pack ids that
          may still have live carriers. *)
  mutable decided_live : int;
  (* Scratch of one selection, reused by every weight. *)
  mutable stamp : int;
  type_seen : int array;  (** By pack id: [stamp] once scanned. *)
  owner_seen : int array;  (** By cid: [stamp] once classified. *)
  slot : int array;  (** By cid: selection index, or -1 when incompatible. *)
  sel : selection;
}

let build ~deps ~candidates =
  let ncids = 1 + List.fold_left (fun m (c : Candidate.t) -> max m c.Candidate.cid) (-1) candidates in
  let cands = Array.make ncids None and owned = Array.make ncids [||] in
  let ids = ref Pack.Map.empty and npacks = ref 0 in
  let intern p =
    match Pack.Map.find_opt p !ids with
    | Some id -> id
    | None ->
        let id = !npacks in
        incr npacks;
        ids := Pack.Map.add p id !ids;
        id
  in
  List.iter
    (fun (c : Candidate.t) ->
      cands.(c.Candidate.cid) <- Some c;
      owned.(c.Candidate.cid) <- Array.of_list (List.map intern c.Candidate.packs))
    candidates;
  let npacks = !npacks in
  let carriers = Array.make npacks [] in
  Array.iteri (fun cid -> Array.iter (fun p -> carriers.(p) <- cid :: carriers.(p))) owned;
  let carriers = Array.map Array.of_list carriers in
  {
    deps;
    cands;
    owned;
    carriers;
    carried = Array.map Array.length carriers;
    live = Array.map Option.is_some cands;
    decided_type = Array.make npacks false;
    decided_packs = 0;
    decided_types = 0;
    decided_scan = Array.make npacks 0;
    decided_live = 0;
    stamp = 0;
    type_seen = Array.make npacks 0;
    owner_seen = Array.make ncids 0;
    slot = Array.make ncids 0;
    sel =
      {
        size = 0;
        owners = Array.make ncids 0;
        mult = Array.make ncids 0;
        degree = Array.make ncids 0;
        types = 0;
        packs = 0;
      };
  }

let conflict t a b =
  a <> b
  &&
  match (t.cands.(a), t.cands.(b)) with
  | Some ca, Some cb -> Candidate.conflicts ~deps:t.deps ca cb
  | _ -> false

let alive t cid = cid >= 0 && cid < Array.length t.live && t.live.(cid)

(* Count [o]'s node towards the selection for [cid]: the first time [o]
   is met it is classified once, by its conflict with [cid]. *)
let note t ~cid o =
  let s = t.sel in
  if t.owner_seen.(o) <> t.stamp then begin
    t.owner_seen.(o) <- t.stamp;
    if conflict t o cid then t.slot.(o) <- -1
    else begin
      t.slot.(o) <- s.size;
      s.owners.(s.size) <- o;
      s.mult.(s.size) <- 1;
      s.size <- s.size + 1
    end
  end
  else if t.slot.(o) >= 0 then s.mult.(t.slot.(o)) <- s.mult.(t.slot.(o)) + 1

(* Note every live carrier of pack [p] other than [cid], compacting the
   dead ones out of its list. *)
let scan t ~cid p =
  let cs = t.carriers.(p) in
  let kept = ref 0 in
  for i = 0 to t.carried.(p) - 1 do
    let o = cs.(i) in
    if t.live.(o) then begin
      cs.(!kept) <- o;
      incr kept;
      if o <> cid then note t ~cid o
    end
  done;
  t.carried.(p) <- !kept

let select t ~cid =
  t.stamp <- t.stamp + 1;
  let s = t.sel in
  s.size <- 0;
  let own = t.owned.(cid) in
  s.packs <- t.decided_packs + Array.length own;
  s.types <- t.decided_types;
  for k = 0 to Array.length own - 1 do
    let p = own.(k) in
    if t.type_seen.(p) <> t.stamp then begin
      t.type_seen.(p) <- t.stamp;
      if not t.decided_type.(p) then s.types <- s.types + 1;
      scan t ~cid p
    end
  done;
  let i = ref 0 in
  while !i < t.decided_live do
    let p = t.decided_scan.(!i) in
    if t.type_seen.(p) <> t.stamp then begin
      t.type_seen.(p) <- t.stamp;
      scan t ~cid p
    end;
    if t.carried.(p) = 0 then begin
      (* No live carrier is left: no later selection can meet one. *)
      t.decided_live <- t.decided_live - 1;
      t.decided_scan.(!i) <- t.decided_scan.(t.decided_live)
    end
    else incr i
  done;
  (* Every node of an owner has the same neighbours: the nodes of the
     conflicting selected owners. *)
  Array.fill s.degree 0 s.size 0;
  for k = 0 to s.size - 1 do
    for l = k + 1 to s.size - 1 do
      if conflict t s.owners.(k) s.owners.(l) then begin
        s.degree.(k) <- s.degree.(k) + s.mult.(l);
        s.degree.(l) <- s.degree.(l) + s.mult.(k)
      end
    done
  done;
  s

let remove_decided t cid =
  Array.iter
    (fun p ->
      t.decided_packs <- t.decided_packs + 1;
      if not t.decided_type.(p) then begin
        t.decided_type.(p) <- true;
        t.decided_types <- t.decided_types + 1;
        t.decided_scan.(t.decided_live) <- p;
        t.decided_live <- t.decided_live + 1
      end)
    t.owned.(cid);
  if t.live.(cid) then
    for o = 0 to Array.length t.live - 1 do
      if t.live.(o) && (o = cid || conflict t cid o) then t.live.(o) <- false
    done

let remove_owner t cid = t.live.(cid) <- false

let live_order t = List.filter (fun o -> t.live.(o)) (List.init (Array.length t.live) Fun.id)
let node_count t = List.fold_left (fun acc o -> acc + Array.length t.owned.(o)) 0 (live_order t)

let edge_count t =
  let rec pairs acc = function
    | [] -> acc
    | a :: rest ->
        let na = Array.length t.owned.(a) in
        pairs
          (List.fold_left
             (fun acc b -> if conflict t a b then acc + (na * Array.length t.owned.(b)) else acc)
             acc rest)
          rest
  in
  pairs 0 (live_order t)

let pp ppf t =
  Format.fprintf ppf "@[<v>VP: %d nodes, %d edges@," (node_count t) (edge_count t);
  (* A node's id is its rank among all owners' packs in build order. *)
  let nid = ref 0 in
  Array.iter
    (Option.iter (fun (c : Candidate.t) ->
         List.iter
           (fun p ->
             if t.live.(c.Candidate.cid) then
               Format.fprintf ppf "  n%d %a (C%d)@," !nid Pack.pp p c.Candidate.cid;
             incr nid)
           c.Candidate.packs))
    t.cands;
  Format.fprintf ppf "@]"
