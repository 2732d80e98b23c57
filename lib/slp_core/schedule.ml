open Slp_ir
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark

type item = Single of int | Superword of int list

type stats = {
  direct_reuses : int;
  permuted_reuses : int;
  packed_sources : int;
  permutations : int;
}

type t = { items : item list; stats : stats }

type selection = Reuse_driven | Program_order
type ordering_search = Direct_reuse_only | Exhaustive

type options = { selection : selection; ordering_search : ordering_search }

let default_options = { selection = Reuse_driven; ordering_search = Direct_reuse_only }

(* All permutations of a list, lazily bounded. *)
let permutations ~limit xs =
  let results = ref [] in
  let count = ref 0 in
  let rec go acc remaining =
    if !count < limit then
      match remaining with
      | [] -> begin
          results := List.rev acc :: !results;
          incr count
        end
      | _ ->
          List.iter
            (fun x ->
              if !count < limit then
                go (x :: acc) (List.filter (fun y -> y <> x) remaining))
            remaining
  in
  go [] xs;
  List.rev !results

(* Sorted union of sorted id arrays, without repeats. *)
let union_sorted arrays =
  Array.of_list (List.sort_uniq Int.compare (List.concat_map Array.to_list arrays))

(* -- per-block facts -------------------------------------------------- *)

module Facts = struct
  type group = {
    positions : int array;
    keys : int array array;
    clobbers : int array;
    memory_orders : int list list Lazy.t;
  }

  type pricing = ..

  (* Statements are held by rank (index in ascending id order), so rank
     order is id order and a rank list sorts like its id list.  Operand
     ids number the distinct operands in [Operand.compare] order:
     constants, then scalars, then array elements, each array's
     elements one run. *)
  type t = {
    block : Block.t;
    deps : (int * int) list;
    ids : int array;  (** Statement id by rank, ascending. *)
    stmts : Stmt.t array;  (** By rank. *)
    dep_ranks : (int * int) list;
    related : Bytes.t;  (** [deps] as a rank matrix: byte [p * n + q] is 1. *)
    operands : Operand.t array;  (** By operand id. *)
    first_scalar : int;
    first_elem : int;
    rows : int array array;  (** By rank: operand id per position, 0 = def. *)
    clobbers : int array array;  (** By operand id; empty unless defined. *)
    groups : (int list, group) Hashtbl.t;  (** By sorted rank list. *)
    mutable pricing : pricing option;
  }

  (* Binary search of a statement id; -1 when absent. *)
  let rank_in (ids : int array) id =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let x = ids.(mid) in
        if x = id then mid else if x < id then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length ids)

  let find_rank t id = rank_in t.ids id

  let rank t id =
    let r = find_rank t id in
    if r < 0 then raise Not_found else r

  (* The ids a definition of operand [d] may alias: itself for a
     scalar; for an array element, the elements of the same array (one
     run of ids) that [Operand.may_alias] cannot tell apart from it. *)
  let aliases operands d =
    match operands.(d) with
    | Operand.Const _ -> [||]
    | Operand.Scalar _ -> [| d |]
    | Operand.Elem (x, _) as def ->
        let named i =
          i >= 0
          && i < Array.length operands
          && match operands.(i) with Operand.Elem (y, _) -> String.equal x y | _ -> false
        in
        let lo = ref d and hi = ref d in
        while named (!lo - 1) do decr lo done;
        while named (!hi + 1) do incr hi done;
        Array.of_list
          (List.filter
             (fun i -> Operand.may_alias def operands.(i))
             (List.init (!hi - !lo + 1) (fun k -> !lo + k)))

  let make ~deps (block : Block.t) =
    let stmts = Array.of_list block.Block.stmts in
    Array.stable_sort (fun (a : Stmt.t) (b : Stmt.t) -> Int.compare a.Stmt.id b.Stmt.id) stmts;
    let ids = Array.map (fun (s : Stmt.t) -> s.Stmt.id) stmts in
    let positions = Array.map (fun s -> Array.of_list (Stmt.positions s)) stmts in
    (* Every occurrence, numbered in (rank, position) order, then sorted
       by operand: equal operands end up side by side and share the next
       id. *)
    let flat f = Array.concat (Array.to_list (Array.mapi f positions)) in
    let occ_op = flat (fun _ ops -> ops) in
    let occ_row = flat (fun r ops -> Array.make (Array.length ops) r) in
    let occ_pos = flat (fun _ ops -> Array.init (Array.length ops) Fun.id) in
    let order = Array.init (Array.length occ_op) Fun.id in
    Array.stable_sort (fun a b -> Operand.compare occ_op.(a) occ_op.(b)) order;
    let rows = Array.map (fun ops -> Array.make (Array.length ops) 0) positions in
    let operands = Array.make (Array.length occ_op) (Operand.Const 0.0) in
    let next = ref (-1) and first_scalar = ref 0 and first_elem = ref 0 in
    Array.iteri
      (fun i k ->
        let op = occ_op.(k) in
        if i = 0 || Operand.compare occ_op.(order.(i - 1)) op <> 0 then begin
          incr next;
          operands.(!next) <- op;
          match op with
          | Operand.Const _ ->
              first_scalar := !next + 1;
              first_elem := !next + 1
          | Operand.Scalar _ -> first_elem := !next + 1
          | Operand.Elem _ -> ()
        end;
        rows.(occ_row.(k)).(occ_pos.(k)) <- !next)
      order;
    let operands = Array.sub operands 0 (!next + 1) in
    let first_scalar = !first_scalar and first_elem = !first_elem in
    let clobbers = Array.make (Array.length operands) [||] in
    Array.iter
      (fun row ->
        let d = row.(0) in
        if Array.length clobbers.(d) = 0 then clobbers.(d) <- aliases operands d)
      rows;
    let n = Array.length ids in
    let rank id =
      let r = rank_in ids id in
      if r < 0 then raise Not_found else r
    in
    let related = Bytes.make (n * n) '\000' in
    let dep_ranks =
      List.map
        (fun (p, q) ->
          let rp = rank p and rq = rank q in
          Bytes.set related ((rp * n) + rq) '\001';
          (rp, rq))
        deps
    in
    {
      block;
      deps;
      ids;
      stmts;
      dep_ranks;
      related;
      operands;
      first_scalar;
      first_elem;
      rows;
      clobbers;
      groups = Hashtbl.create 32;
      pricing = None;
    }

  let block t = t.block
  let deps t = t.deps
  let stmt t id = t.stmts.(rank t id)
  let rank_count t = Array.length t.ids
  let rank_stmt t r = t.stmts.(r)
  let row t r = t.rows.(r)

  let id t op =
    let rec go lo hi =
      if lo >= hi then raise Not_found
      else
        let mid = (lo + hi) / 2 in
        let c = Operand.compare t.operands.(mid) op in
        if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length t.operands)

  let operand t i = t.operands.(i)
  let id_count t = Array.length t.operands
  let first_scalar t = t.first_scalar
  let first_elem t = t.first_elem
  let clobbers t i = t.clobbers.(i)
  let related t a b = Bytes.get t.related ((a * Array.length t.ids) + b) = '\001'

  let rec fill_lanes rows pos (a : int array) l = function
    | [] -> ()
    | r :: rest ->
        a.(l) <- rows.(r).(pos);
        fill_lanes rows pos a (l + 1) rest

  let lanes t order pos =
    let a = Array.make (List.length order) 0 in
    fill_lanes t.rows pos a 0 order;
    a

  (* Lane order following row-major memory order of the pack at [pos],
     when all pairwise address differences are constant. *)
  let memory_order t members pos =
    let with_ops = List.map (fun m -> (m, t.operands.(t.rows.(m).(pos)))) members in
    let comparable =
      List.for_all
        (fun (_, a) ->
          List.for_all
            (fun (_, b) ->
              match (a, b) with
              | Operand.Elem (x, ix), Operand.Elem (y, iy)
                when String.equal x y && List.length ix = List.length iy ->
                  List.for_all2 (fun p q -> Affine.diff_const p q <> None) ix iy
              | _ -> false)
            with_ops)
        with_ops
    in
    if not comparable then None
    else begin
      let key (_, op) =
        match op with
        | Operand.Elem (_, ix) ->
            (* Lexicographic by per-dimension constant offset relative to
               the first member. *)
            let ref_ix =
              match snd (List.hd with_ops) with
              | Operand.Elem (_, r) -> r
              | _ -> assert false
            in
            List.map2 (fun a b -> Option.value (Affine.diff_const a b) ~default:0) ix ref_ix
        | _ -> []
      in
      let sorted = List.stable_sort (fun a b -> compare (key a) (key b)) with_ops in
      Some (List.map fst sorted)
    end

  let group t members =
    match Hashtbl.find_opt t.groups members with
    | Some g -> g
    | None ->
        let npos = Array.length t.rows.(List.hd members) in
        let keys =
          List.init npos (fun pos ->
              let key = lanes t members pos in
              Array.sort Int.compare key;
              (pos, key))
          |> List.filter (fun (_, key) -> key.(Array.length key - 1) >= t.first_scalar)
        in
        let g =
          {
            positions = Array.of_list (List.map fst keys);
            keys = Array.of_list (List.map snd keys);
            clobbers = union_sorted (List.map (fun r -> t.clobbers.(t.rows.(r).(0))) members);
            memory_orders =
              lazy (List.filter_map (fun (pos, _) -> memory_order t members pos) keys);
          }
        in
        Hashtbl.replace t.groups members g;
        g

  let pricing t = t.pricing
  let set_pricing t p = t.pricing <- Some p
end

(* Apply [f] to each lane order of [members] (ranks) that places, at
   source position [pos], exactly the live superword [target] — the
   "orders with at least one direct reuse" — in depth-first order over
   the members.  Bounded to 24 orders to avoid factorial blow-up on
   packs full of duplicates. *)
let orders_matching facts members pos (target : int array) f =
  let limit = 24 in
  let count = ref 0 in
  let ms = Array.of_list members in
  let used = Array.make (Array.length ms) false in
  let rec go l acc =
    if !count < limit then
      if l = Array.length target then begin
        incr count;
        f (List.rev acc)
      end
      else
        for i = 0 to Array.length ms - 1 do
          if !count < limit && (not used.(i)) && (Facts.row facts ms.(i)).(pos) = target.(l)
          then begin
            used.(i) <- true;
            go (l + 1) (ms.(i) :: acc);
            used.(i) <- false
          end
        done
  in
  go 0 []

let stmt_ids facts order = List.map (fun r -> facts.Facts.ids.(r)) order
let sorted_ranks facts order = List.sort Int.compare (List.map (Facts.rank facts) order)

(* -- stats replay --------------------------------------------------- *)

let analyze ~config facts items =
  let live = Live.create ~capacity:config.Config.vector_registers in
  let direct = ref 0 and permuted = ref 0 and packed = ref 0 in
  List.iter
    (function
      | Single sid ->
          let r = Facts.rank facts sid in
          Live.invalidate live (Facts.clobbers facts (Facts.row facts r).(0))
      | Superword order ->
          let ranks = List.map (Facts.rank facts) order in
          let g = Facts.group facts (List.sort Int.compare ranks) in
          let lanes = Array.map (Facts.lanes facts ranks) g.Facts.positions in
          Array.iteri
            (fun i pos ->
              if pos > 0 then
                if Live.mem_exact live lanes.(i) then incr direct
                else if Live.mem_multiset live g.Facts.keys.(i) then incr permuted
                else incr packed)
            g.Facts.positions;
          Live.invalidate live g.Facts.clobbers;
          for i = Array.length lanes - 1 downto 0 do
            Live.insert live ~lanes:lanes.(i) ~key:g.Facts.keys.(i)
          done)
    items;
  {
    items;
    stats =
      {
        direct_reuses = !direct;
        permuted_reuses = !permuted;
        packed_sources = !packed;
        permutations = !permuted;
      };
  }

(* -- main ----------------------------------------------------------- *)

let rec mem_int (x : int) = function [] -> false | y :: rest -> x = y || mem_int x rest

(* [compare] on rank lists, lexicographic. *)
let rec compare_orders (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a', y :: b' -> if x <> y then Int.compare x y else compare_orders a' b'

let run_facts ?(options = default_options) ?fuel ?(obs = Obs.none) ~config
    facts (grouping : Grouping.result) =
  (* The message is formatted only when [obs] takes remarks. *)
  let remark id ~order fmt =
    if Obs.remarks_on obs then
      Printf.ksprintf
        (fun message ->
          Obs.remark obs
            (Remark.make ~id ~pass:"scheduling" ~block:facts.Facts.block.Block.label
               ~stmts:(stmt_ids facts order) message))
        fmt
    else Printf.ikfprintf ignore () fmt
  in
  let tick =
    match fuel with
    | None -> fun () -> ()
    | Some f -> fun () -> Slp_util.Slp_error.Fuel.tick f
  in
  (* Group nodes: one per SIMD group, one per single; gid = index.
     Members are ranks, ascending. *)
  let nodes =
    Array.of_list
      (List.map (fun g -> (sorted_ranks facts g, true)) grouping.Grouping.groups
      @ List.map (fun s -> ([ Facts.rank facts s ], false)) grouping.Grouping.singles)
  in
  let n = Array.length nodes in
  let members = Array.map fst nodes and is_super = Array.map snd nodes in
  let groups =
    Array.map (fun (ms, super) -> if super then Some (Facts.group facts ms) else None) nodes
  in
  let owner = Array.make (Facts.rank_count facts) (-1) in
  Array.iteri (fun gid ms -> List.iter (fun m -> owner.(m) <- gid) ms) members;
  (* Dependence DAG over groups, as successor lists and in-degrees. *)
  let succs = Array.make n [] and indeg = Array.make n 0 in
  List.iter
    (fun (p, q) ->
      let gp = owner.(p) and gq = owner.(q) in
      (* A statement the grouping leaves out. *)
      if gp < 0 || gq < 0 then raise Not_found;
      if gp <> gq && not (mem_int gq succs.(gp)) then begin
        succs.(gp) <- gq :: succs.(gp);
        indeg.(gq) <- indeg.(gq) + 1
      end)
    facts.Facts.dep_ranks;
  if not (Slp_util.Graph.acyclic succs) then
    Slp_util.Slp_error.fail ~pass:Slp_util.Slp_error.Scheduling
      Slp_util.Slp_error.Schedule_failed
      "Schedule.run: groups are not schedulable (dependence cycle)";
  let live = Live.create ~capacity:config.Config.vector_registers in
  let items = ref [] in
  let direct = ref 0 and permuted = ref 0 and packed = ref 0 in
  let group gid = match groups.(gid) with Some g -> g | None -> assert false in
  let reuse_count gid =
    let keys = (group gid).Facts.keys in
    let c = ref 0 in
    for i = 0 to Array.length keys - 1 do
      if Live.mem_multiset live keys.(i) then incr c
    done;
    !c
  in
  let emit_single gid =
    let r = List.hd members.(gid) in
    items := Single facts.Facts.ids.(r) :: !items;
    Live.invalidate live (Facts.clobbers facts (Facts.row facts r).(0))
  in
  let emit_superword gid =
    let gf = group gid and ms = members.(gid) in
    let positions = gf.Facts.positions and keys = gf.Facts.keys in
    (* Cost of an order: one permutation per live-matched source pack
       in the wrong lane order. *)
    let live_positions =
      List.filter (fun i -> Live.mem_multiset live keys.(i))
        (List.init (Array.length positions) Fun.id)
    in
    let scratch = Array.make (List.length ms) 0 in
    let cost order =
      List.fold_left
        (fun perms i ->
          Facts.fill_lanes facts.Facts.rows positions.(i) scratch 0 order;
          if Live.mem_exact live scratch then perms else perms + 1)
        0 live_positions
    in
    (* Choose the lane order: the cheapest candidate, ties to the
       smallest order, program order (the members) among them.  That
       minimum does not depend on the order candidates come in, or on
       repeats, so each is weighed as it is found. *)
    let best = ref ms and best_cost = ref (cost ms) in
    let consider order =
      let c = cost order in
      if c < !best_cost || (c = !best_cost && compare_orders order !best < 0) then begin
        best := order;
        best_cost := c
      end
    in
    Array.iteri
      (fun i pos ->
        Live.iter_multiset live keys.(i) (fun l -> orders_matching facts ms pos l consider))
      positions;
    List.iter consider (Lazy.force gf.Facts.memory_orders);
    (match options.ordering_search with
    | Direct_reuse_only -> ()
    | Exhaustive -> List.iter consider (permutations ~limit:120 ms));
    let order = !best in
    let lanes = Array.map (Facts.lanes facts order) positions in
    (* Account reuse statistics for the chosen order. *)
    Array.iteri
      (fun i pos ->
        if pos > 0 then
          if Live.mem_exact live lanes.(i) then begin
            incr direct;
            remark "SCHED-REUSE" ~order "operand position %d reuses a live pack in lane order"
              pos
          end
          else if Live.mem_multiset live keys.(i) then begin
            incr permuted;
            remark "SCHED-PERM" ~order
              "operand position %d reuses a live pack via a permutation" pos
          end
          else begin
            incr packed;
            remark "SCHED-PACK" ~order "operand position %d is packed from scratch" pos
          end)
      positions;
    items := Superword (stmt_ids facts order) :: !items;
    Live.invalidate live gf.Facts.clobbers;
    (* Sources first, destination last (most recently touched). *)
    for i = Array.length positions - 1 downto 0 do
      Live.insert live ~lanes:lanes.(i) ~key:keys.(i)
    done
  in
  (* Ready-driven emission: prefer the superword statement with the
     highest live reuse; emit singles only when no superword is ready.
     Members are disjoint, so comparing them never ties. *)
  let emitted = Array.make n false in
  let ready gid = (not emitted.(gid)) && indeg.(gid) = 0 in
  for _ = 1 to n do
    tick ();
    let best = ref (-1) and best_reuse = ref 0 in
    for gid = 0 to n - 1 do
      if ready gid && is_super.(gid) then
        match options.selection with
        | Program_order ->
            if !best < 0 || compare_orders members.(!best) members.(gid) > 0 then best := gid
        | Reuse_driven ->
            let r = reuse_count gid in
            if
              !best < 0 || r > !best_reuse
              || (r = !best_reuse && compare_orders members.(!best) members.(gid) > 0)
            then begin
              best := gid;
              best_reuse := r
            end
    done;
    let g =
      if !best >= 0 then begin
        emit_superword !best;
        !best
      end
      else begin
        let single = ref (-1) in
        for gid = 0 to n - 1 do
          if ready gid && (!single < 0 || compare_orders members.(!single) members.(gid) > 0)
          then
            single := gid
        done;
        if !single < 0 then
          Slp_util.Slp_error.fail ~pass:Slp_util.Slp_error.Scheduling
            Slp_util.Slp_error.Schedule_failed "Schedule.run: no ready group (cycle?)";
        emit_single !single;
        !single
      end
    in
    emitted.(g) <- true;
    List.iter (fun s -> indeg.(s) <- indeg.(s) - 1) succs.(g)
  done;
  let stats =
    {
      direct_reuses = !direct;
      permuted_reuses = !permuted;
      packed_sources = !packed;
      permutations = !permuted;
    }
  in
  { items = List.rev !items; stats }

let run ?options ?fuel ?obs ~dep_pairs ~config (block : Block.t) grouping =
  run_facts ?options ?fuel ?obs ~config (Facts.make ~deps:dep_pairs block) grouping

let scheduled_stmt_ids t =
  List.concat_map (function Single s -> [ s ] | Superword ms -> ms) t.items

let is_valid_facts facts t =
  let n = Facts.rank_count facts in
  (* Item index by rank; -1 = not scheduled. *)
  let slot = Array.make n (-1) in
  let placed = ref 0 and unknown = ref false in
  let place idx m =
    incr placed;
    let r = Facts.find_rank facts m in
    if r < 0 then unknown := true else slot.(r) <- idx
  in
  List.iteri
    (fun idx item ->
      match item with Single s -> place idx s | Superword ms -> List.iter (place idx) ms)
    t.items;
  let all_present =
    (not !unknown) && !placed = n && Array.for_all (fun idx -> idx >= 0) slot
  in
  (* Two statements may share a superword only when no dependence pair
     relates them — the same relation the scheduler's DAG was built
     from, so the verdict is consistent whichever analysis supplied the
     pairs. *)
  let related a b = Facts.related facts a b || Facts.related facts b a in
  let independent_members () =
    List.for_all
      (function
        | Single _ -> true
        | Superword ms ->
            let rec pairs = function
              | [] -> true
              | a :: rest -> List.for_all (fun b -> not (related a b)) rest && pairs rest
            in
            pairs (List.map (Facts.rank facts) ms))
      t.items
  in
  let deps_forward () =
    List.for_all (fun (p, q) -> slot.(p) < slot.(q)) facts.Facts.dep_ranks
  in
  all_present && independent_members () && deps_forward ()

let is_valid ~dep_pairs (block : Block.t) t =
  is_valid_facts (Facts.make ~deps:dep_pairs block) t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (function
      | Single s -> Format.fprintf ppf "S%d@," s
      | Superword ms ->
          Format.fprintf ppf "<%s>@,"
            (String.concat ", " (List.map (fun m -> "S" ^ string_of_int m) ms)))
    t.items;
  Format.fprintf ppf "reuses: %d direct, %d permuted, %d packed@]"
    t.stats.direct_reuses t.stats.permuted_reuses t.stats.packed_sources
