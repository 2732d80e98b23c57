open Slp_ir
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark

type options = {
  recompute_weights : bool;
  elimination : Groupgraph.elimination;
  exclude_scattered : bool;
      (** Drop scattered-store candidates outright — the driver's
          second attempt when the cost gate rejects the first
          grouping. *)
  scatter_penalty : float;
      (** Subtracted from the reuse weight of candidates whose store
          target scatters over memory: the scatter's unpack cost
          cannot be repaired later and routinely exceeds what one
          captured reuse saves.  A deviation from the paper's
          reuse-only weight, documented in DESIGN.md. *)
}

let default_options =
  {
    recompute_weights = true;
    elimination = Groupgraph.Max_degree;
    exclude_scattered = false;
    scatter_penalty = 1.0;
  }

type result = {
  groups : int list list;
  singles : int list;
  rounds : int;
  decisions : int;
}

(* One application of the basic grouping algorithm over the current
   unit set.  Returns the merged unit list and the number of decisions
   made this round.  [tick] charges the caller's step budget once per
   elimination-loop iteration — the candidate graph is quadratic in
   block size, and the decide loop is where a pathological block
   spends its time. *)
let round ~options ~tick ~obs ~env ~config ~block ~dep_pairs units =
  (* Remark payloads need unit members; the table is only built when
     someone is listening. *)
  let members_of =
    if not (Obs.remarks_on obs) then fun _ -> []
    else begin
      let tbl = Hashtbl.create 32 in
      List.iter
        (fun (u : Units.t) -> Hashtbl.replace tbl u.Units.uid u.Units.members)
        units;
      fun uid -> Option.value (Hashtbl.find_opt tbl uid) ~default:[]
    end
  in
  let remark id ~stmts message =
    if Obs.remarks_on obs then
      Obs.remark obs
        (Remark.make ~id ~pass:"grouping" ~block:block.Block.label ~stmts
           message)
  in
  let deps = Units.Deps.build ~dep_pairs units in
  let candidates =
    Candidate.find ~env ~config ~units ~deps
    |> List.filter (fun (c : Candidate.t) ->
           not (options.exclude_scattered && c.Candidate.scattered_store))
  in
  if candidates = [] then (units, 0)
  else begin
    let vp = Packgraph.build ~deps ~candidates in
    let cands = Array.of_list candidates in
    let decided_pairs = ref [] in
    let decisions = ref 0 in
    let weigh c = Groupgraph.weight ~vp ~elimination:options.elimination ~cand:c in
    let static = if options.recompute_weights then [||] else Array.map weigh cands in
    let weight_of k (c : Candidate.t) =
      let base = if options.recompute_weights then weigh c else static.(k) in
      if c.Candidate.scattered_store then base -. options.scatter_penalty else base
    in
    let best_alive () =
      (* Highest weight; ties prefer memory-adjacent packs, then the
         smaller candidate id (deterministic). *)
      let better (bw, (bc : Candidate.t)) w (c : Candidate.t) =
        bw > w
        || (bw = w && bc.Candidate.adjacency > c.Candidate.adjacency)
        || (bw = w
           && bc.Candidate.adjacency = c.Candidate.adjacency
           && bc.Candidate.cid < c.Candidate.cid)
      in
      let best = ref None in
      Array.iteri
        (fun k (c : Candidate.t) ->
          if Packgraph.alive vp c.Candidate.cid then begin
            let w = weight_of k c in
            match !best with
            | Some (bw, bc) when better (bw, bc) w c -> ()
            | _ -> best := Some (w, c)
          end)
        cands;
      !best
    in
    let rec decide () =
      tick ();
      match best_alive () with
      | None -> ()
      | Some (w, c) ->
          let pair = (c.Candidate.u1, c.Candidate.u2) in
          let pair_stmts () =
            members_of c.Candidate.u1 @ members_of c.Candidate.u2
          in
          if not (Units.Deps.merged_acyclic deps (pair :: !decided_pairs)) then begin
            (* Committing this candidate would create a dependence
               cycle with earlier decisions: discard it. *)
            remark "GRP-REJECT-DEP" ~stmts:(pair_stmts ())
              (Printf.sprintf
                 "merging units %d and %d would create a dependence cycle"
                 c.Candidate.u1 c.Candidate.u2);
            Packgraph.remove_owner vp c.Candidate.cid;
            decide ()
          end
          else begin
            remark "GRP-MERGE" ~stmts:(pair_stmts ())
              (Printf.sprintf "merged units %d and %d (weight %.2f)"
                 c.Candidate.u1 c.Candidate.u2 w);
            decided_pairs := pair :: !decided_pairs;
            incr decisions;
            if Obs.remarks_on obs then begin
              (* The decision removes every live candidate conflicting
                 with it; those not sharing one of its units are
                 reported. *)
              let distinct =
                Array.fold_left
                  (fun n (o : Candidate.t) ->
                    if
                      Packgraph.alive vp o.Candidate.cid
                      && (not (Candidate.shares_unit c o))
                      && Candidate.conflicts ~deps c o
                    then n + 1
                    else n)
                  0 cands
              in
              if distinct > 0 then
                remark "GRP-REJECT-CONFLICT" ~stmts:(pair_stmts ())
                  (Printf.sprintf
                     "dropped %d candidate(s) conflicting with the \
                      committed merge"
                     distinct)
            end;
            Packgraph.remove_decided vp c.Candidate.cid;
            decide ()
          end
    in
    decide ();
    if !decisions = 0 then (units, 0)
    else begin
      (* Merge decided pairs into new units for the next round. *)
      let unit_tbl = Hashtbl.create 32 in
      List.iter (fun (u : Units.t) -> Hashtbl.replace unit_tbl u.Units.uid u) units;
      let next_uid =
        ref (1 + List.fold_left (fun m (u : Units.t) -> max m u.Units.uid) 0 units)
      in
      let merged_away = Hashtbl.create 16 in
      let merged_units =
        List.rev_map
          (fun (a, b) ->
            let ua = Hashtbl.find unit_tbl a and ub = Hashtbl.find unit_tbl b in
            Hashtbl.replace merged_away a ();
            Hashtbl.replace merged_away b ();
            let uid = !next_uid in
            incr next_uid;
            Units.merge ~uid ua ub)
          !decided_pairs
      in
      let untouched =
        List.filter (fun (u : Units.t) -> not (Hashtbl.mem merged_away u.Units.uid)) units
      in
      (untouched @ merged_units, !decisions)
    end
  end

let run ?(options = default_options) ?fuel ?(obs = Obs.none) ~dep_pairs ~env
    ~config (block : Block.t) =
  let tick =
    match fuel with
    | None -> fun () -> ()
    | Some f -> fun () -> Slp_util.Slp_error.Fuel.tick f
  in
  let initial = List.map (Units.of_stmt ~env) block.Block.stmts in
  let rec iterate units rounds decisions =
    tick ();
    let units', made =
      round ~options ~tick ~obs ~env ~config ~block ~dep_pairs units
    in
    if made = 0 then (units, rounds, decisions)
    else iterate units' (rounds + 1) (decisions + made)
  in
  let final_units, rounds, decisions = iterate initial 0 0 in
  let groups =
    List.filter_map
      (fun (u : Units.t) ->
        if List.length u.Units.members >= 2 then Some u.Units.members else None)
      final_units
  in
  let grouped = List.concat groups in
  let singles =
    List.filter_map
      (fun (s : Stmt.t) ->
        if List.mem s.Stmt.id grouped then None else Some s.Stmt.id)
      block.Block.stmts
  in
  let groups = List.sort (fun a b -> compare (List.hd a) (List.hd b)) groups in
  { groups; singles; rounds; decisions }
