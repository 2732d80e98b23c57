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

(* [compare] on rank lists, lexicographic. *)
let rec compare_orders (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a', y :: b' -> if x <> y then Int.compare x y else compare_orders a' b'

module Facts = struct
  type group = {
    members : int list;
    ranks : int array;
    positions : int array;
    keys : int array array;
    clobbers : int array;
    memory_orders : int list list Lazy.t;
    mutable orders : view list;  (** The lane orders viewed so far. *)
  }

  and view = { id : int; order : int list; group : group; lanes : int array array; item : item }

  type pricing = ..

  (* What schedules and validity checks use besides the facts proper,
     built on first use: per rank, its dependence successors, its
     [[rank]] list and its [Single] item; and arrays by node (an item
     of the grouping) or by rank that each run overwrites.  The node
     arrays grow when a grouping has more nodes than the block has
     statements, which only an invalid one can. *)
  type scratch = {
    mutable node_members : int list array;
    mutable node_group : group array;  (** [no_group] for a single. *)
    mutable indeg : int array;
    mutable pending : int array;
    mutable stack : int array;
    mutable emitted : Bytes.t;
    mutable placed : item array;  (** Emitted items, in order. *)
    owner : int array;  (** By rank: its node. *)
    slot : int array;  (** By rank: its item's index. *)
    used : Bytes.t;  (** By lane, for the lane order search. *)
    live_with : int array list array;
        (** By group position, for the lane order search: the lanes of
            the live superwords carrying its multiset. *)
    dep_succs : int array array;  (** By rank: the second rank of each of its pairs. *)
    single_members : int list array;  (** By rank: [[rank]]. *)
    single_items : item array;  (** By rank: [Single id]. *)
  }

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
    views : (int list, view) Hashtbl.t;  (** By ids in lane order. *)
    scratch : scratch Lazy.t;  (** Built by the first schedule or check. *)
    mutable view_count : int;
    mutable lives : Live.t list;
    mutable pricing : pricing option;
  }

  let no_group =
    {
      members = [];
      ranks = [||];
      positions = [||];
      keys = [||];
      clobbers = [||];
      memory_orders = Lazy.from_val [];
      orders = [];
    }

  (* Binary search of a statement id in [ids.(lo) .. ids.(hi - 1)]; -1
     when absent. *)
  let rec rank_within (ids : int array) id lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let x = ids.(mid) in
      if x = id then mid
      else if x < id then rank_within ids id (mid + 1) hi
      else rank_within ids id lo mid

  let rank_in ids id = rank_within ids id 0 (Array.length ids)

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

  let make_scratch ids rows dep_ranks =
    let n = Array.length ids in
    let succs = Array.make n [] in
    List.iter (fun (p, q) -> succs.(p) <- q :: succs.(p)) dep_ranks;
    {
      node_members = Array.make n [];
      node_group = Array.make n no_group;
      indeg = Array.make n 0;
      pending = Array.make n 0;
      stack = Array.make n 0;
      emitted = Bytes.make n '\000';
      placed = Array.make n (Single 0);
      owner = Array.make n (-1);
      slot = Array.make n (-1);
      used = Bytes.make n '\000';
      live_with = Array.make (Array.fold_left (fun acc row -> max acc (Array.length row)) 0 rows) [];
      dep_succs = Array.map Array.of_list succs;
      single_members = Array.init n (fun r -> [ r ]);
      single_items = Array.map (fun id -> Single id) ids;
    }

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
      views = Hashtbl.create 32;
      scratch = lazy (make_scratch ids rows dep_ranks);
      view_count = 0;
      lives = [];
      pricing = None;
    }

  let block t = t.block
  let deps t = t.deps
  let rank_count t = Array.length t.ids
  let rank_stmt t r = t.stmts.(r)
  let rank_id t r = t.ids.(r)
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
    match Hashtbl.find t.groups members with
    | g -> g
    | exception Not_found ->
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
            members;
            ranks = Array.of_list members;
            positions = Array.of_list (List.map fst keys);
            keys = Array.of_list (List.map snd keys);
            clobbers = union_sorted (List.map (fun r -> t.clobbers.(t.rows.(r).(0))) members);
            memory_orders =
              lazy (List.filter_map (fun (pos, _) -> memory_order t members pos) keys);
            orders = [];
          }
        in
        Hashtbl.replace t.groups members g;
        g

  let rec find_view order = function
    | [] -> raise Not_found
    | v :: rest -> if compare_orders v.order order = 0 then v else find_view order rest

  let order_view t g order =
    match find_view order g.orders with
    | v -> v
    | exception Not_found ->
        let ids = List.map (fun r -> t.ids.(r)) order in
        let v =
          {
            id = t.view_count;
            order;
            group = g;
            lanes = Array.map (lanes t order) g.positions;
            item = Superword ids;
          }
        in
        t.view_count <- t.view_count + 1;
        g.orders <- v :: g.orders;
        Hashtbl.replace t.views ids v;
        v

  let view t ids =
    match Hashtbl.find t.views ids with
    | v -> v
    | exception Not_found ->
        let order = List.map (rank t) ids in
        order_view t (group t (List.sort Int.compare order)) order

  let rec find_live capacity = function
    | [] -> None
    | l :: rest -> if Live.capacity l = capacity then Some l else find_live capacity rest

  let live t ~capacity =
    match find_live capacity t.lives with
    | Some l ->
        Live.clear l;
        l
    | None ->
        let l = Live.create ~capacity in
        t.lives <- l :: t.lives;
        l

  (* The scratch, with node arrays for at least [n] nodes. *)
  let scratch t n =
    let s = Lazy.force t.scratch in
    if Array.length s.node_members < n then begin
      s.node_members <- Array.make n [];
      s.node_group <- Array.make n no_group;
      s.indeg <- Array.make n 0;
      s.pending <- Array.make n 0;
      s.stack <- Array.make n 0;
      s.emitted <- Bytes.make n '\000';
      s.placed <- Array.make n (Single 0)
    end;
    s

  let pricing t = t.pricing
  let set_pricing t p = t.pricing <- Some p
end

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
          let v = Facts.view facts order in
          let g = v.Facts.group and lanes = v.Facts.lanes in
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

(* The state of one schedule's lane order search: the group being
   ordered, the live superword set, and the cheapest order found so
   far with its cost.  [sc.live_with] holds, for each of the group's
   positions, the live superwords carrying its multiset (filled
   through [at]); [sc.used] marks the members placed by
   [orders_matching]. *)
type order_search = {
  facts : Facts.t;
  sc : Facts.scratch;
  live : Live.t;
  mutable group : Facts.group;
  mutable at : int;  (** A position index of the group. *)
  mutable pos : int;
  mutable found : int;
  mutable best : int list;
  mutable best_cost : int;
  mutable direct : int;  (** Source packs live in lane order, so far. *)
  mutable permuted : int;  (** Live in another lane order. *)
  mutable packed : int;  (** Packed from scratch. *)
}

(* The lanes at position [pos] of the statements [order] are [lanes]. *)
let rec same_lanes rows pos (lanes : int array) l = function
  | [] -> true
  | r :: rest -> rows.(r).(pos) = lanes.(l) && same_lanes rows pos lanes (l + 1) rest

let rec some_same rows pos order = function
  | [] -> false
  | lanes :: rest -> same_lanes rows pos lanes 0 order || some_same rows pos order rest

(* Cost of a lane order: one permutation per live-matched source pack
   in the wrong lane order.  A live superword with the pack's lanes
   in this order carries the pack's multiset, so only those are
   compared. *)
let order_cost st order =
  let g = st.group and live_with = st.sc.Facts.live_with and rows = st.facts.Facts.rows in
  let perms = ref 0 in
  for i = 0 to Array.length g.Facts.positions - 1 do
    match live_with.(i) with
    | [] -> ()
    | candidates -> if not (some_same rows g.Facts.positions.(i) order candidates) then incr perms
  done;
  !perms

(* The cheapest order, ties to the smallest, program order (the
   members) among them.  That minimum does not depend on the order
   candidates come in, or on repeats, so each is weighed as it is
   found. *)
let consider st order =
  let c = order_cost st order in
  if c < st.best_cost || (c = st.best_cost && compare_orders order st.best < 0) then begin
    st.best <- order;
    st.best_cost <- c
  end

let rec consider_all st = function
  | [] -> ()
  | order :: rest ->
      consider st order;
      consider_all st rest

(* Weigh each lane order of the group's members that places, at source
   position [st.pos], exactly the live superword [target] — the
   "orders with at least one direct reuse" — in depth-first order over
   the members.  Bounded to 24 orders per target to avoid factorial
   blow-up on packs full of duplicates. *)
let rec orders_matching st (target : int array) l acc =
  let limit = 24 in
  if st.found < limit then
    if l = Array.length target then begin
      st.found <- st.found + 1;
      consider st (List.rev acc)
    end
    else
      let ms = st.group.Facts.ranks and used = st.sc.Facts.used in
      for i = 0 to Array.length ms - 1 do
        if
          st.found < limit
          && Bytes.get used i = '\000'
          && st.facts.Facts.rows.(ms.(i)).(st.pos) = target.(l)
        then begin
          Bytes.set used i '\001';
          orders_matching st target (l + 1) (ms.(i) :: acc);
          Bytes.set used i '\000'
        end
      done

let stmt_ids facts order = List.map (fun r -> facts.Facts.ids.(r)) order

(* The message is formatted only when [obs] takes remarks: callers
   test [Obs.remarks_on] first. *)
let remark obs facts id ~order fmt =
  Printf.ksprintf
    (fun message ->
      Obs.remark obs
        (Remark.make ~id ~pass:"scheduling" ~block:facts.Facts.block.Block.label
           ~stmts:(stmt_ids facts order) message))
    fmt

let emit_superword ~options ~obs st ~collect ~on_match (g : Facts.group) =
  let facts = st.facts and live = st.live in
  let ms = g.Facts.members in
  let positions = g.Facts.positions and keys = g.Facts.keys in
  st.group <- g;
  for i = 0 to Array.length positions - 1 do
    st.sc.Facts.live_with.(i) <- [];
    st.at <- i;
    Live.iter_multiset live keys.(i) collect
  done;
  st.best <- ms;
  st.best_cost <- order_cost st ms;
  for i = 0 to Array.length positions - 1 do
    st.pos <- positions.(i);
    List.iter on_match st.sc.Facts.live_with.(i)
  done;
  consider_all st (Lazy.force g.Facts.memory_orders);
  (match options.ordering_search with
  | Direct_reuse_only -> ()
  | Exhaustive -> consider_all st (permutations ~limit:120 ms));
  let v = Facts.order_view facts g st.best in
  let order = v.Facts.order and lanes = v.Facts.lanes in
  (* Account reuse statistics for the chosen order. *)
  let remarks = Obs.remarks_on obs in
  for i = 0 to Array.length positions - 1 do
    let pos = positions.(i) in
    if pos > 0 then
      if Live.mem_exact live lanes.(i) then begin
        st.direct <- st.direct + 1;
        if remarks then
          remark obs facts "SCHED-REUSE" ~order
            "operand position %d reuses a live pack in lane order" pos
      end
      else if Live.mem_multiset live keys.(i) then begin
        st.permuted <- st.permuted + 1;
        if remarks then
          remark obs facts "SCHED-PERM" ~order
            "operand position %d reuses a live pack via a permutation" pos
      end
      else begin
        st.packed <- st.packed + 1;
        if remarks then
          remark obs facts "SCHED-PACK" ~order "operand position %d is packed from scratch" pos
      end
  done;
  Live.invalidate live g.Facts.clobbers;
  (* Sources first, destination last (most recently touched). *)
  for i = Array.length positions - 1 downto 0 do
    Live.insert live ~lanes:lanes.(i) ~key:keys.(i)
  done;
  v.Facts.item

(* Node [g] is done: count down, once per dependence pair leaving it,
   the [pending] predecessors of the pair's target node, and push the
   nodes that reach zero on [stack] from [top]; the new top. *)
let rec release (sc : Facts.scratch) owner pending stack top g = function
  | [] -> top
  | m :: rest ->
      let top = ref top in
      if owner.(m) = g then begin
        let qs = sc.Facts.dep_succs.(m) in
        for k = 0 to Array.length qs - 1 do
          let h = owner.(qs.(k)) in
          if h <> g then begin
            pending.(h) <- pending.(h) - 1;
            if pending.(h) = 0 then begin
              stack.(!top) <- h;
              incr top
            end
          end
        done
      end;
      release sc owner pending stack !top g rest

let rec place_owner owner g = function
  | [] -> ()
  | m :: rest ->
      owner.(m) <- g;
      place_owner owner g rest

let rec count_preds owner indeg = function
  | [] -> ()
  | (p, q) :: rest ->
      let gp = owner.(p) and gq = owner.(q) in
      (* A statement the grouping leaves out. *)
      if gp < 0 || gq < 0 then raise Not_found;
      if gp <> gq then indeg.(gq) <- indeg.(gq) + 1;
      count_preds owner indeg rest

let run_facts ?(options = default_options) ?fuel ?(obs = Obs.none) ~config
    facts (grouping : Grouping.result) =
  (* Group nodes: one per SIMD group, one per single; gid = index.
     Members are ranks, ascending. *)
  let n = List.length grouping.Grouping.groups + List.length grouping.Grouping.singles in
  let sc = Facts.scratch facts n in
  let members = sc.Facts.node_members and node_group = sc.Facts.node_group in
  let rec add_groups gid = function
    | [] -> gid
    | ids :: rest ->
        let g = (Facts.view facts ids).Facts.group in
        members.(gid) <- g.Facts.members;
        node_group.(gid) <- g;
        add_groups (gid + 1) rest
  in
  let rec add_singles gid = function
    | [] -> ()
    | s :: rest ->
        members.(gid) <- sc.Facts.single_members.(Facts.rank facts s);
        node_group.(gid) <- Facts.no_group;
        add_singles (gid + 1) rest
  in
  add_singles (add_groups 0 grouping.Grouping.groups) grouping.Grouping.singles;
  let owner = sc.Facts.owner in
  Array.fill owner 0 (Array.length owner) (-1);
  for g = 0 to n - 1 do
    place_owner owner g members.(g)
  done;
  (* Dependences between nodes, counted once per pair: a node is ready
     when every pair into it comes from an emitted node. *)
  let indeg = sc.Facts.indeg and pending = sc.Facts.pending and stack = sc.Facts.stack in
  Array.fill indeg 0 n 0;
  count_preds owner indeg facts.Facts.dep_ranks;
  Array.blit indeg 0 pending 0 n;
  let top = ref 0 in
  for g = 0 to n - 1 do
    if pending.(g) = 0 then begin
      stack.(!top) <- g;
      incr top
    end
  done;
  let drained = ref 0 in
  while !top > 0 do
    decr top;
    let g = stack.(!top) in
    incr drained;
    top := release sc owner pending stack !top g members.(g)
  done;
  if !drained < n then
    Slp_util.Slp_error.fail ~pass:Slp_util.Slp_error.Scheduling
      Slp_util.Slp_error.Schedule_failed
      "Schedule.run: groups are not schedulable (dependence cycle)";
  let live = Facts.live facts ~capacity:config.Config.vector_registers in
  let st =
    {
      facts;
      sc;
      live;
      group = Facts.no_group;
      at = 0;
      pos = 0;
      found = 0;
      best = [];
      best_cost = 0;
      direct = 0;
      permuted = 0;
      packed = 0;
    }
  in
  let collect lanes = sc.Facts.live_with.(st.at) <- lanes :: sc.Facts.live_with.(st.at) in
  let on_match target =
    st.found <- 0;
    orders_matching st target 0 []
  in
  let emitted = sc.Facts.emitted and placed = sc.Facts.placed in
  Bytes.fill emitted 0 n '\000';
  (* Ready-driven emission: prefer the superword statement with the
     highest live reuse; emit singles only when no superword is ready.
     Members are disjoint, so comparing them never ties. *)
  for step = 0 to n - 1 do
    (match fuel with None -> () | Some f -> Slp_util.Slp_error.Fuel.tick f);
    let best = ref (-1) and best_reuse = ref 0 in
    for gid = 0 to n - 1 do
      let g = node_group.(gid) in
      if Bytes.get emitted gid = '\000' && indeg.(gid) = 0 && g != Facts.no_group then
        match options.selection with
        | Program_order ->
            if !best < 0 || compare_orders members.(!best) members.(gid) > 0 then best := gid
        | Reuse_driven ->
            let keys = g.Facts.keys in
            let r = ref 0 in
            for i = 0 to Array.length keys - 1 do
              if Live.mem_multiset live keys.(i) then incr r
            done;
            if
              !best < 0 || !r > !best_reuse
              || (!r = !best_reuse && compare_orders members.(!best) members.(gid) > 0)
            then begin
              best := gid;
              best_reuse := !r
            end
    done;
    let g =
      if !best >= 0 then begin
        placed.(step) <- emit_superword ~options ~obs st ~collect ~on_match node_group.(!best);
        !best
      end
      else begin
        let single = ref (-1) in
        for gid = 0 to n - 1 do
          if
            Bytes.get emitted gid = '\000'
            && indeg.(gid) = 0
            && (!single < 0 || compare_orders members.(!single) members.(gid) > 0)
          then single := gid
        done;
        if !single < 0 then
          Slp_util.Slp_error.fail ~pass:Slp_util.Slp_error.Scheduling
            Slp_util.Slp_error.Schedule_failed "Schedule.run: no ready group (cycle?)";
        let r = List.hd members.(!single) in
        placed.(step) <- sc.Facts.single_items.(r);
        Live.invalidate live (Facts.clobbers facts facts.Facts.rows.(r).(0));
        !single
      end
    in
    Bytes.set emitted g '\001';
    ignore (release sc owner indeg stack 0 g members.(g))
  done;
  let items = ref [] in
  for i = n - 1 downto 0 do
    items := placed.(i) :: !items
  done;
  let stats =
    {
      direct_reuses = st.direct;
      permuted_reuses = st.permuted;
      packed_sources = st.packed;
      permutations = st.permuted;
    }
  in
  { items = !items; stats }

let run ?options ?fuel ?obs ~dep_pairs ~config (block : Block.t) grouping =
  run_facts ?options ?fuel ?obs ~config (Facts.make ~deps:dep_pairs block) grouping

let scheduled_stmt_ids t =
  List.concat_map (function Single s -> [ s ] | Superword ms -> ms) t.items

(* Record each id's item index in [slot] by rank; the count placed, or
   -1 at the first id that is not a statement of the block. *)
let rec place facts slot idx placed = function
  | [] -> placed
  | id :: rest ->
      let r = Facts.find_rank facts id in
      if r < 0 then -1
      else begin
        slot.(r) <- idx;
        place facts slot idx (placed + 1) rest
      end

let rec place_items facts slot idx placed = function
  | [] -> placed
  | item :: rest ->
      let placed =
        match item with
        | Single s -> place facts slot idx placed [ s ]
        | Superword ms -> place facts slot idx placed ms
      in
      if placed < 0 then -1 else place_items facts slot (idx + 1) placed rest

(* Two statements may share a superword only when no dependence pair
   relates them — the same relation the scheduler's DAG was built
   from, so the verdict is consistent whichever analysis supplied the
   pairs. *)
let rec independent_of facts a = function
  | [] -> true
  | b :: rest ->
      let rb = Facts.rank facts b in
      (not (Facts.related facts a rb || Facts.related facts rb a)) && independent_of facts a rest

let rec independent facts = function
  | [] -> true
  | a :: rest -> independent_of facts (Facts.rank facts a) rest && independent facts rest

let rec independent_members facts = function
  | [] -> true
  | Single _ :: rest -> independent_members facts rest
  | Superword ms :: rest -> independent facts ms && independent_members facts rest

let rec deps_forward slot = function
  | [] -> true
  | (p, q) :: rest -> slot.(p) < slot.(q) && deps_forward slot rest

let is_valid_facts facts t =
  let n = Facts.rank_count facts in
  (* Item index by rank; -1 = not scheduled. *)
  let slot = (Facts.scratch facts 0).Facts.slot in
  Array.fill slot 0 n (-1);
  let rec all_placed r = r = n || (slot.(r) >= 0 && all_placed (r + 1)) in
  place_items facts slot 0 0 t.items = n
  && all_placed 0
  && independent_members facts t.items
  && deps_forward slot facts.Facts.dep_ranks

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
