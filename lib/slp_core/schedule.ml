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

(* -- per-block facts -------------------------------------------------- *)

module Facts = struct
  type group = {
    packs : (int * Pack.t) list;  (** Non-constant packs, by position. *)
    defs : Operand.t list;
    memory_orders : int list list;
        (** Row-major lane order of each pack that has one, by position. *)
  }

  type row = { stmt : Stmt.t; positions : Operand.t array (** 0 = def *) }

  type t = {
    block : Block.t;
    deps : (int * int) list;
    related : (int * int, unit) Hashtbl.t;  (** [deps] as a set. *)
    rows : (int, row) Hashtbl.t;  (** By statement id. *)
    groups : (int list, group) Hashtbl.t;  (** By sorted member list. *)
  }

  let make ~deps (block : Block.t) =
    let rows = Hashtbl.create 32 in
    List.iter
      (fun (s : Stmt.t) ->
        Hashtbl.replace rows s.Stmt.id
          { stmt = s; positions = Array.of_list (Stmt.positions s) })
      block.Block.stmts;
    let related = Hashtbl.create 32 in
    List.iter (fun pq -> Hashtbl.replace related pq ()) deps;
    { block; deps; related; rows; groups = Hashtbl.create 32 }

  let block t = t.block
  let stmt t id = (Hashtbl.find t.rows id).stmt
  let operand t id pos = (Hashtbl.find t.rows id).positions.(pos)
  let ordered t order pos = List.map (fun m -> operand t m pos) order
  let position_count t id = Array.length (Hashtbl.find t.rows id).positions

  (* Lane order following row-major memory order of the pack at [pos],
     when all pairwise address differences are constant. *)
  let memory_order t members pos =
    let with_ops = List.map (fun m -> (m, operand t m pos)) members in
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
        let packs =
          List.init (position_count t (List.hd members)) (fun pos -> (pos, Pack.of_operands (ordered t members pos)))
          |> List.filter (fun (_, p) -> not (Pack.all_constant p))
        in
        let g =
          {
            packs;
            defs = ordered t members 0;
            memory_orders =
              List.filter_map (fun (pos, _) -> memory_order t members pos) packs;
          }
        in
        Hashtbl.replace t.groups members g;
        g
end

type gnode = {
  gid : int;
  members : int list;  (** Sorted ascending (program order). *)
  is_super : bool;
}

(* Enumerate lane orders of [members] that place, at source position
   [pos], exactly the live superword [target] — the "orders with at
   least one direct reuse".  Bounded to avoid factorial blow-up on
   packs full of duplicates. *)
let orders_matching facts members pos target =
  let limit = 24 in
  let results = ref [] in
  let count = ref 0 in
  let rec go remaining target_ops acc =
    if !count < limit then
      match target_ops with
      | [] -> begin
          results := List.rev acc :: !results;
          incr count
        end
      | want :: rest ->
          List.iter
            (fun m ->
              if !count < limit then
                let op = Facts.operand facts m pos in
                if Operand.equal op want then
                  go (List.filter (fun x -> x <> m) remaining) rest (m :: acc))
            remaining
  in
  go members target [];
  !results

(* -- stats replay --------------------------------------------------- *)

let analyze ~config (block : Block.t) items =
  (* Replay reads statements only; no dependence is consulted. *)
  let facts = Facts.make ~deps:[] block in
  let live = Live.create ~capacity:config.Config.vector_registers in
  let direct = ref 0 and permuted = ref 0 and packed = ref 0 in
  List.iter
    (function
      | Single sid -> Live.invalidate live ~defs:[ Facts.operand facts sid 0 ]
      | Superword order ->
          let npos = Facts.position_count facts (List.hd order) in
          for pos = 1 to npos - 1 do
            let ordered = Facts.ordered facts order pos in
            let pack = Pack.of_operands ordered in
            if not (Pack.all_constant pack) then
              if Live.mem_exact live ordered then incr direct
              else if Live.mem_multiset live pack then incr permuted
              else incr packed
          done;
          Live.invalidate live ~defs:(Facts.ordered facts order 0);
          for pos = npos - 1 downto 0 do
            let ordered = Facts.ordered facts order pos in
            if not (Pack.all_constant (Pack.of_operands ordered)) then
              Live.insert live ordered
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

let run_facts ?(options = default_options) ?fuel ?(obs = Obs.none) ~config
    facts (grouping : Grouping.result) =
  let remark id ~stmts message =
    if Obs.remarks_on obs then
      Obs.remark obs
        (Remark.make ~id ~pass:"scheduling" ~block:facts.Facts.block.Block.label
           ~stmts message)
  in
  let tick =
    match fuel with
    | None -> fun () -> ()
    | Some f -> fun () -> Slp_util.Slp_error.Fuel.tick f
  in
  (* Group nodes: one per SIMD group, one per single; gid = index. *)
  let nodes =
    Array.of_list
      (List.mapi
         (fun gid (members, is_super) ->
           { gid; members = List.sort compare members; is_super })
         (List.map (fun g -> (g, true)) grouping.Grouping.groups
         @ List.map (fun s -> ([ s ], false)) grouping.Grouping.singles))
  in
  let n = Array.length nodes in
  let owner = Hashtbl.create 32 in
  Array.iter (fun g -> List.iter (fun m -> Hashtbl.replace owner m g.gid) g.members) nodes;
  (* Dependence DAG over groups, as successor lists and in-degrees. *)
  let succs = Array.make n [] and indeg = Array.make n 0 in
  List.iter
    (fun (p, q) ->
      let gp = Hashtbl.find owner p and gq = Hashtbl.find owner q in
      if gp <> gq && not (List.mem gq succs.(gp)) then begin
        succs.(gp) <- gq :: succs.(gp);
        indeg.(gq) <- indeg.(gq) + 1
      end)
    facts.Facts.deps;
  if not (Slp_util.Graph.acyclic succs) then
    Slp_util.Slp_error.fail ~pass:Slp_util.Slp_error.Scheduling
      Slp_util.Slp_error.Schedule_failed
      "Schedule.run: groups are not schedulable (dependence cycle)";
  let live = Live.create ~capacity:config.Config.vector_registers in
  let items = ref [] in
  let direct = ref 0 and permuted = ref 0 and packed = ref 0 in
  let reuse_count g =
    List.length
      (List.filter (fun (_, p) -> Live.mem_multiset live p) (Facts.group facts g.members).Facts.packs)
  in
  let emit_single g =
    let sid = List.hd g.members in
    items := Single sid :: !items;
    Live.invalidate live ~defs:[ Facts.operand facts sid 0 ]
  in
  let emit_superword g =
    let gf = Facts.group facts g.members in
    (* Choose the lane order. *)
    let candidates = ref [] in
    let add_order o = if not (List.mem o !candidates) then candidates := o :: !candidates in
    List.iter
      (fun (pos, pack) ->
        Live.iter_multiset live pack (fun l ->
            List.iter add_order (orders_matching facts g.members pos l)))
      gf.Facts.packs;
    List.iter add_order gf.Facts.memory_orders;
    (match options.ordering_search with
    | Direct_reuse_only -> ()
    | Exhaustive -> List.iter add_order (permutations ~limit:120 g.members));
    add_order g.members;
    (* Cost of an order: one permutation per live-matched source pack
       in the wrong lane order; ties prefer program order. *)
    let live_packs = List.filter (fun (_, p) -> Live.mem_multiset live p) gf.Facts.packs in
    let cost order =
      List.fold_left
        (fun perms (pos, _) ->
          if Live.mem_exact live (Facts.ordered facts order pos) then perms
          else perms + 1)
        0 live_packs
    in
    let best =
      List.fold_left
        (fun acc order ->
          let c = cost order in
          match acc with
          | Some (bc, border)
            when bc < c || (bc = c && compare border order <= 0) ->
              acc
          | _ -> Some (c, order))
        None
        (List.rev !candidates)
    in
    let order = match best with Some (_, o) -> o | None -> g.members in
    (* Account reuse statistics for the chosen order. *)
    List.iter
      (fun (pos, pack) ->
        if pos > 0 then begin
          let ordered = Facts.ordered facts order pos in
          if Live.mem_exact live ordered then begin
            incr direct;
            remark "SCHED-REUSE" ~stmts:order
              (Printf.sprintf
                 "operand position %d reuses a live pack in lane order" pos)
          end
          else if Live.mem_multiset live pack then begin
            incr permuted;
            remark "SCHED-PERM" ~stmts:order
              (Printf.sprintf
                 "operand position %d reuses a live pack via a permutation" pos)
          end
          else begin
            incr packed;
            remark "SCHED-PACK" ~stmts:order
              (Printf.sprintf "operand position %d is packed from scratch" pos)
          end
        end)
      gf.Facts.packs;
    items := Superword order :: !items;
    Live.invalidate live ~defs:gf.Facts.defs;
    (* Sources first, destination last (most recently touched). *)
    List.iter
      (fun (pos, _) -> Live.insert live (Facts.ordered facts order pos))
      (List.rev gf.Facts.packs)
  in
  (* Ready-driven emission: prefer the superword statement with the
     highest live reuse; emit singles only when no superword is ready. *)
  let emitted = Array.make n false in
  for _ = 1 to n do
    tick ();
    let ready = ref [] in
    for gid = n - 1 downto 0 do
      if (not emitted.(gid)) && indeg.(gid) = 0 then ready := nodes.(gid) :: !ready
    done;
    let ready = !ready in
    let g =
      match List.filter (fun g -> g.is_super) ready with
      | [] -> begin
          match List.sort (fun a b -> compare a.members b.members) ready with
          | g :: _ ->
              emit_single g;
              g
          | [] ->
              Slp_util.Slp_error.fail ~pass:Slp_util.Slp_error.Scheduling
                Slp_util.Slp_error.Schedule_failed
                "Schedule.run: no ready group (cycle?)"
        end
      | supers ->
          let best =
            match options.selection with
            | Program_order ->
                List.fold_left
                  (fun acc g ->
                    match acc with
                    | Some (bg : gnode) when compare bg.members g.members <= 0 -> acc
                    | _ -> Some g)
                  None supers
                |> Option.map (fun g -> (0, g))
            | Reuse_driven ->
                List.fold_left
                  (fun acc g ->
                    let r = reuse_count g in
                    match acc with
                    | Some (br, (bg : gnode))
                      when br > r || (br = r && compare bg.members g.members <= 0) ->
                        acc
                    | _ -> Some (r, g))
                  None supers
          in
          let g = match best with Some (_, g) -> g | None -> assert false in
          emit_superword g;
          g
    in
    emitted.(g.gid) <- true;
    List.iter (fun s -> indeg.(s) <- indeg.(s) - 1) succs.(g.gid)
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
  let block = facts.Facts.block in
  let order_of = Hashtbl.create 32 in
  List.iteri
    (fun idx item ->
      List.iter
        (fun m -> Hashtbl.replace order_of m idx)
        (match item with Single s -> [ s ] | Superword ms -> ms))
    t.items;
  let all_present =
    List.for_all (fun id -> Hashtbl.mem order_of id) (Block.stmt_ids block)
    && List.length (scheduled_stmt_ids t) = Block.size block
  in
  (* Two statements may share a superword only when no dependence pair
     relates them — the same relation the scheduler's DAG was built
     from, so the verdict is consistent whichever analysis supplied the
     pairs. *)
  let related a b =
    Hashtbl.mem facts.Facts.related (a, b) || Hashtbl.mem facts.Facts.related (b, a)
  in
  let independent_members =
    List.for_all
      (function
        | Single _ -> true
        | Superword ms ->
            let rec pairs = function
              | [] -> true
              | a :: rest ->
                  List.for_all (fun b -> not (related a b)) rest && pairs rest
            in
            pairs ms)
      t.items
  in
  let deps_forward =
    List.for_all
      (fun (p, q) -> Hashtbl.find order_of p < Hashtbl.find order_of q)
      facts.Facts.deps
  in
  all_present && independent_members && deps_forward

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
