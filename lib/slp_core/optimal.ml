open Slp_ir
module E = Slp_util.Slp_error
module Bnb = Slp_util.Bnb
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark

(* Exact pack selection, goSLP-style.  Statement packing is a 0-1
   selection problem: every legal pack (a set of mutually isomorphic,
   mutually independent statements that fits the datapath) is a binary
   variable, subject to partition constraints (each statement in
   exactly one pack or left scalar), intra-pack independence, the lane
   budget, and pack-graph acyclicity.  The objective is the same
   deterministic evaluator every heuristic is judged by:
   [Cost.estimate] of the [Schedule.run] of the chosen partition.

   We solve it with the branch-and-bound core in [Slp_util.Bnb]
   rather than an LP relaxation: bounds are per-element admissible
   underestimates derived from the cost model, read from tables built
   once per block, the relaxation of the uncovered set is memoised on
   its bitset, acyclicity is checked incrementally
   ([Units.Deps.join]), and the search is metered by the standard
   [Fuel] so pathological blocks bail under the catalogued BAIL15
   code instead of hanging the pipeline.  A bailed block keeps the
   best incumbent it started with (the holistic heuristic's plan or a
   seed); what the search itself found is discarded. *)

let default_solver_steps = 20_000

type stats = {
  nodes : int;
  leaves : int;
  memo_hits : int;
  bound_cuts : int;
  infeasible : int;
  improvements : int;
  proven : bool;  (** search completed: the result is the exact optimum *)
  bailed : bool;  (** fuel ran out: result is the best incumbent it started with *)
}

type bail = { label : string; budget : int; error : E.t }

(* One evaluated packing: a committed schedule plus its estimate. *)
type attempt = {
  a_grouping : Grouping.result;
  a_schedule : Schedule.t;
  a_estimate : Cost.estimate;
}

(* -- legality -------------------------------------------------------- *)

let independent deps a b =
  not (List.exists (fun (p, q) -> (p = a && q = b) || (p = b && q = a)) deps)

(* Two statements may share a pack: same shape, compatible types, no
   dependence either way.  The lane budget and joint acyclicity are
   enforced separately (they are not pairwise properties). *)
let compatible ~env ~deps (a : Stmt.t) (b : Stmt.t) =
  a.Stmt.id <> b.Stmt.id
  && Stmt.isomorphic ~env a b
  && Units.stmt_elem_ty ~env a = Units.stmt_elem_ty ~env b
  && independent deps a.Stmt.id b.Stmt.id

let grouping_of_parts parts =
  let groups = List.filter (fun p -> List.length p >= 2) parts in
  let singles =
    List.concat (List.filter (fun p -> List.length p < 2) parts)
  in
  {
    Grouping.groups = List.map (List.sort compare) groups;
    singles = List.sort compare singles;
    rounds = 0;
    decisions = 0;
  }

let grouping_of_schedule (sched : Schedule.t) =
  let groups, singles =
    List.fold_left
      (fun (gs, ss) item ->
        match item with
        | Schedule.Single s -> (gs, s :: ss)
        | Schedule.Superword ms -> (List.sort compare ms :: gs, ss))
      ([], []) sched.Schedule.items
  in
  { Grouping.groups = List.rev groups; singles = List.sort compare singles; rounds = 0; decisions = 0 }

(* The one evaluator shared by the solver's leaves, the seeds, the
   brute-force test oracle and the heuristics: schedule the partition,
   then price the schedule.  [None] = the partition admits no
   dependence-respecting schedule. *)
let evaluate_facts ?params ~query ~config facts grouping =
  match Schedule.run_facts ~config facts grouping with
  | exception E.Error { E.code = E.Schedule_failed; _ } -> None
  | sched ->
      if not (Schedule.is_valid_facts facts sched) then None
      else
        Some
          {
            a_grouping = grouping;
            a_schedule = sched;
            a_estimate = Cost.estimate_facts ?params ~query facts sched;
          }

let evaluate ?params ~query ~deps ~config block grouping =
  evaluate_facts ?params ~query ~config (Schedule.Facts.make ~deps block) grouping

(* Scheme-fair modeled cost of a whole plan: committed blocks at their
   estimated vector cost, everything else at the exact scalar cost of
   the block's statements.  Unlike summing estimates, this prices
   blocks that never produced an estimate (no candidates at all)
   identically for every scheme, which is what makes per-scheme totals
   comparable — the dominance tests and the gap report both rely on
   it. *)
let modeled_cost ?params (plan : Driver.program_plan) =
  let params = match params with Some p -> p | None -> Cost.default_params in
  List.fold_left
    (fun acc (bp : Driver.block_plan) ->
      acc
      +.
      match (bp.Driver.schedule, bp.Driver.estimate) with
      | Some _, Some e -> e.Cost.vector_cost
      | _ ->
          List.fold_left
            (fun a s -> a +. Cost.scalar_stmt_cost params s)
            0.0 bp.Driver.block.Block.stmts)
    0.0 plan.Driver.plans

(* -- exhaustive enumeration (test oracle) ---------------------------- *)

(* Every partition of the block into legal packs and singles, evaluated
   with the same evaluator the solver uses.  Exponential: callers keep
   blocks tiny (the qcheck property uses <= 6 statements). *)
let enumerate_partitions ~env ~config ~deps (block : Block.t) =
  let stmts = Array.of_list block.Block.stmts in
  let n = Array.length stmts in
  let compat i j = compatible ~env ~deps stmts.(i) stmts.(j) in
  let lanes i =
    Config.max_lanes config (Units.stmt_elem_ty ~env stmts.(i))
  in
  let results = ref [] in
  let rec go covered parts =
    match List.find_opt (fun i -> not (List.mem i covered)) (List.init n Fun.id) with
    | None -> results := List.rev parts :: !results
    | Some i ->
        (* i stays single *)
        go (i :: covered) ([ i ] :: parts);
        (* or joins a pack in which it is the minimum member *)
        let candidates =
          List.filter
            (fun j -> j > i && (not (List.mem j covered)) && compat i j)
            (List.init n Fun.id)
        in
        let rec extend members pool =
          (match members with
          | _ :: _ :: _ -> go (members @ covered) (List.sort compare members :: parts)
          | _ -> ());
          if List.length members < lanes i then
            let rec pick = function
              | [] -> ()
              | c :: rest ->
                  if List.for_all (fun m -> compat m c) members then
                    extend (c :: members) rest;
                  pick rest
            in
            pick pool
        in
        extend [ i ] candidates
  in
  go [] [];
  List.map
    (List.map (fun part -> List.map (fun i -> stmts.(i).Stmt.id) part))
    !results

(* -- the solver ------------------------------------------------------ *)

let plan_block ?(obs = Obs.none) ?params ?(seeds = []) ?solver_steps
    ?grouping_fuel ?schedule_fuel ~env ~config ~query (site : Driver.site) =
  let ({ Driver.block; nest; deps; facts } : Driver.site) = site in
  let label = block.Block.label in
  let cost_params = match params with Some p -> p | None -> Cost.default_params in
  let budget = match solver_steps with Some b -> b | None -> default_solver_steps in
  let remark id fmt =
    if Obs.remarks_on obs then
      Printf.ksprintf
        (fun message -> Obs.remark obs (Remark.make ~id ~pass:"optimal" ~block:label message))
        fmt
    else Printf.ikfprintf ignore () fmt
  in
  let stmts = Array.of_list block.Block.stmts in
  (* The site's facts serve the heuristic, every leaf, seed and
     re-evaluation. *)
  let facts = Lazy.force facts in
  let scalar_cost =
    Array.fold_left
      (fun acc s -> acc +. Cost.scalar_stmt_cost cost_params s)
      0.0 stmts
  in
  let evaluate_grouping g = evaluate_facts ?params ~query ~config facts g in
  (* Heuristic baseline: the holistic driver on the same facts.  Its
     committed schedule (when any) is both the fallback on bail and the
     initial incumbent, so the exact scheme can never end up worse. *)
  let heuristic =
    Driver.optimize_block ~obs:Obs.none ?grouping_fuel ?schedule_fuel ?params
      ~env ~config ~query site
  in
  let seed_attempts =
    List.filter_map
      (fun (sched : Schedule.t) ->
        let ids = List.sort compare (Schedule.scheduled_stmt_ids sched) in
        if
          ids = List.sort compare (Block.stmt_ids block)
          && Schedule.is_valid_facts facts sched
        then
          Some
            {
              a_grouping = grouping_of_schedule sched;
              a_schedule = sched;
              a_estimate = Cost.estimate_facts ?params ~query facts sched;
            }
        else None)
      seeds
  in
  let heuristic_attempt =
    match (heuristic.Driver.schedule, heuristic.Driver.estimate) with
    | Some sched, Some est ->
        [ { a_grouping = heuristic.Driver.grouping; a_schedule = sched; a_estimate = est } ]
    | _ -> []
  in
  let incumbents = heuristic_attempt @ seed_attempts in
  let incumbent_cost =
    List.fold_left
      (fun acc a -> Float.min acc a.a_estimate.Cost.vector_cost)
      scalar_cost incumbents
  in
  (* Per-rank tables, built once per block; the search reads only
     these.  Admissible bounds from the cost model: a committed pack
     of k isomorphic statements is charged the vector op weight of its
     head exactly once; isomorphism forces identical operator
     sequences, so every member shares that weight.  A memory
     destination costs at least one vector store or two extract+store
     pairs, whichever is cheaper; source packs and alignment penalties
     only add.  A statement's relaxation is its scalar price, or its
     share of that pack bound when a partner is still uncovered.
     Partners are listed in ascending rank, the order the packs are
     grown in. *)
  let n = Schedule.Facts.rank_count facts in
  let rank_stmt = Schedule.Facts.rank_stmt facts in
  let scalar = Array.init n (fun r -> Cost.scalar_stmt_cost cost_params (rank_stmt r)) in
  let pack_bound =
    Array.init n (fun r ->
        let s = rank_stmt r in
        let dest_floor =
          match s.Stmt.lhs with
          | Operand.Elem _ ->
              Float.min cost_params.Cost.vector_store
                (2.0 *. (cost_params.Cost.extract +. cost_params.Cost.scalar_store))
          | Operand.Scalar _ | Operand.Const _ -> 0.0
        in
        Cost.weighted_ops cost_params ~base:cost_params.Cost.vector_op s.Stmt.rhs +. dest_floor)
  in
  let lanes = Array.init n (fun r -> Config.max_lanes config (Units.stmt_elem_ty ~env (rank_stmt r))) in
  let share = Array.init n (fun r -> Float.min scalar.(r) (pack_bound.(r) /. float_of_int lanes.(r))) in
  let compat = Bytes.make (n * n) '\000' in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if compatible ~env ~deps (rank_stmt a) (rank_stmt b) then Bytes.set compat ((a * n) + b) '\001'
    done
  done;
  let partners =
    Array.init n (fun a ->
        Array.of_list (List.filter (fun b -> Bytes.get compat ((a * n) + b) <> '\000') (List.init n Fun.id)))
  in
  let rec compatible_with_all c = function
    | [] -> true
    | m :: rest -> Bytes.get compat ((m * n) + c) <> '\000' && compatible_with_all c rest
  in
  let contraction =
    Units.Deps.contraction
      (Units.Deps.build ~dep_pairs:deps (Array.to_list (Array.map (Units.of_stmt ~env) stmts)))
  in
  let fuel = E.Fuel.create ~pass:E.Grouping ~budget () in
  let tick () = E.Fuel.tick fuel in
  let singles = Array.init n (fun r -> { Bnb.part = [| r |]; members = [| r |]; bound = scalar.(r) }) in
  (* Packs with least member [r], in the reverse of the order they are
     found: members grow by ascending rank, each new one compatible
     with all before it, up to the lane budget; one tick per pack
     grown. *)
  let choices r ~available =
    let packs = ref [] in
    let rec fill part i = function
      | [] -> ()
      | m :: rest ->
          part.(i) <- m;
          fill part (i - 1) rest
    in
    let rec extend members size k =
      tick ();
      if size >= 2 then begin
        let part = Array.make size 0 in
        fill part (size - 1) members;
        packs := { Bnb.part; members = part; bound = pack_bound.(r) } :: !packs
      end;
      if size < lanes.(r) then pick members size k
    and pick members size k =
      if k < Array.length partners.(r) then begin
        let c = partners.(r).(k) in
        if available c && compatible_with_all c members then extend (c :: members) (size + 1) (k + 1);
        pick members size (k + 1)
      end
    in
    extend [ r ] 1 0;
    !packs
  in
  let relax r ~available =
    if Array.exists available partners.(r) then share.(r) else scalar.(r)
  in
  let ids part = Array.fold_right (fun r acc -> Schedule.Facts.rank_id facts r :: acc) part [] in
  let grouping_of_ranks parts = grouping_of_parts (List.map ids parts) in
  let leaf parts =
    let grouping = grouping_of_ranks parts in
    if grouping.Grouping.groups = [] then Some scalar_cost
    else
      match evaluate_grouping grouping with
      | Some a -> Some a.a_estimate.Cost.vector_cost
      | None -> None
  in
  (* The counters are ours, so they survive a search cut short by the
     fuel. *)
  let counts = Bnb.new_stats () in
  let solve () =
    Bnb.solve ~size:n ~choices ~single:(Array.get singles) ~relax
      ~feasible:(Units.Deps.join contraction) ~undo:(Units.Deps.leave contraction) ~leaf
      ~incumbent:incumbent_cost ~tick ~stats:counts ()
  in
  let solved, bailed =
    match solve () with
    | best -> (best, None)
    | exception E.Error ({ E.code = E.Fuel_exhausted; _ } as cause) ->
        let error =
          E.make ~pass:E.Grouping E.Optimal_bailed
            (Printf.sprintf
               "exact pack solver exhausted its budget of %d steps on block %s; falling back to the holistic heuristic (%s)"
               budget label cause.E.message)
        in
        (None, Some { label; budget; error })
  in
  let solved_attempt =
    match solved with
    | Some (parts, _) -> evaluate_grouping (grouping_of_ranks parts)
    | None -> None
  in
  let stats =
    {
      nodes = counts.Bnb.nodes;
      leaves = counts.Bnb.leaves;
      memo_hits = counts.Bnb.memo_hits;
      bound_cuts = counts.Bnb.bound_cuts;
      infeasible = counts.Bnb.infeasible;
      improvements = counts.Bnb.improvements;
      proven = Option.is_none bailed;
      bailed = Option.is_some bailed;
    }
  in
  let candidates =
    match solved_attempt with Some a -> a :: incumbents | None -> incumbents
  in
  let best =
    List.fold_left
      (fun acc a ->
        match acc with
        | Some b when b.a_estimate.Cost.vector_cost <= a.a_estimate.Cost.vector_cost ->
            acc
        | _ -> Some a)
      None candidates
  in
  (match (stats.bailed, best) with
  | true, _ ->
      remark "OPT-BAIL"
        "solver budget %d exhausted after %d nodes, %d leaves (%d bound cuts, %d infeasible, %d improvements); using best incumbent"
        budget stats.nodes stats.leaves stats.bound_cuts stats.infeasible stats.improvements
  | false, Some a ->
      let h =
        match heuristic_attempt with
        | ha :: _ -> ha.a_estimate.Cost.vector_cost
        | [] -> scalar_cost
      in
      if a.a_estimate.Cost.vector_cost < h -. 1e-9 then
        remark "OPT-IMPROVE" "optimum %.1f beats heuristic %.1f (%d nodes, %d pruned)"
          a.a_estimate.Cost.vector_cost h stats.nodes stats.bound_cuts
      else remark "OPT-MATCH" "heuristic already optimal at %.1f (%d nodes)" h stats.nodes
  | false, None ->
      remark "OPT-MATCH" "scalar cost %.1f is optimal (%d nodes)" scalar_cost stats.nodes);
  let plan =
    match best with
    | Some a when a.a_estimate.Cost.vector_cost < scalar_cost ->
        {
          Driver.block = block;
          nest;
          deps;
          grouping = a.a_grouping;
          schedule = Some a.a_schedule;
          estimate = Some a.a_estimate;
        }
    | _ ->
        {
          Driver.block = block;
          nest;
          deps;
          grouping =
            {
              Grouping.groups = [];
              singles = List.sort compare (Block.stmt_ids block);
              rounds = 0;
              decisions = 0;
            };
          schedule = None;
          estimate =
            (match best with
            | Some a -> Some a.a_estimate
            | None -> heuristic.Driver.estimate);
        }
  in
  (plan, bailed, stats)
