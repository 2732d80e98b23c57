(* Tests for the core SLP machinery: packs, candidates, the variable
   pack conflicting graph, auxiliary-graph weights (including the
   paper's 2/3 example from Figures 4-6), grouping, scheduling, the
   live superword set and the cost model. *)

open Slp_ir
module Pack = Slp_core.Pack
module Config = Slp_core.Config
module Units = Slp_core.Units
module Candidate = Slp_core.Candidate
module Packgraph = Slp_core.Packgraph
module Groupgraph = Slp_core.Groupgraph
module Grouping = Slp_core.Grouping
module Schedule = Slp_core.Schedule
module Live = Slp_core.Live
module Cost = Slp_core.Cost

let config = Config.make ~datapath_bits:128 ()

(* -- pack ----------------------------------------------------------------- *)

let test_pack_multiset () =
  let p1 = Pack.of_operands [ Operand.Scalar "b"; Operand.Scalar "a" ] in
  let p2 = Pack.of_operands [ Operand.Scalar "a"; Operand.Scalar "b" ] in
  Alcotest.(check bool) "order irrelevant" true (Pack.equal p1 p2);
  let dup = Pack.of_operands [ Operand.Scalar "a"; Operand.Scalar "a" ] in
  Alcotest.(check bool) "duplicates distinct from singles" false (Pack.equal p1 dup);
  Alcotest.(check int) "union size" 4 (Pack.size (Pack.union p1 dup));
  Alcotest.(check bool) "all constant" true
    (Pack.all_constant (Pack.of_operands [ Operand.Const 1.0; Operand.Const 2.0 ]));
  Alcotest.(check bool) "not all constant" false
    (Pack.all_constant (Pack.of_operands [ Operand.Const 1.0; Operand.Scalar "x" ]))

(* -- the paper's Figure 2 / Figures 4-6 weight example --------------------- *)

(* Figure 2 (reconstructed from the text): five statements where the
   candidate set is {{S1,S2}, {S1,S3}, {S4,S5}} and the weight of
   {S4,S5} comes out as 2/3. *)
let fig2_env () =
  let env = Env.create () in
  List.iter
    (fun v -> Env.declare_scalar env v Types.F64)
    [ "V1"; "V2"; "V3"; "V5"; "V7" ];
  env

let fig2_block () =
  Block.of_rhs ~label:"fig2"
    [
      (Operand.Scalar "V1", Expr.Leaf (Operand.Scalar "V3"));
      (Operand.Scalar "V2", Expr.Leaf (Operand.Scalar "V5"));
      (Operand.Scalar "V5", Expr.Leaf (Operand.Scalar "V7"));
      (Operand.Scalar "V3", Expr.Infix.(sc "V1" + sc "V1"));
      (Operand.Scalar "V5", Expr.Infix.(sc "V2" + sc "V5"));
    ]

let fig2_candidates () =
  let env = fig2_env () in
  let block = fig2_block () in
  let units = List.map (Units.of_stmt ~env) block.Block.stmts in
  let deps = Units.Deps.build block units in
  (env, block, units, deps, Candidate.find ~env ~config ~units ~deps)

let test_fig2_candidates () =
  let _, _, _, _, cands = fig2_candidates () in
  let pairs =
    List.map (fun (c : Candidate.t) -> (c.Candidate.u1, c.Candidate.u2)) cands
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int)))
    "candidate set from the paper" [ (1, 2); (1, 3); (4, 5) ] pairs

let test_fig2_weight () =
  let _, _, _, deps, cands = fig2_candidates () in
  let tbl = Hashtbl.create 8 in
  List.iter (fun (c : Candidate.t) -> Hashtbl.replace tbl c.Candidate.cid c) cands;
  let conflict a b =
    a <> b && Candidate.conflicts ~deps (Hashtbl.find tbl a) (Hashtbl.find tbl b)
  in
  let vp = Packgraph.build ~candidates:cands ~conflict in
  let c45 =
    List.find (fun (c : Candidate.t) -> Candidate.units_of c = (4, 5)) cands
  in
  let w =
    Groupgraph.weight ~vp ~conflict ~elimination:Groupgraph.Max_degree
      ~decided_packs:[] ~cand:c45
  in
  Alcotest.(check (float 1e-9)) "the paper's 2/3" (2.0 /. 3.0) w

let test_fig2_conflicts () =
  let _, _, _, deps, cands = fig2_candidates () in
  let find u1 u2 =
    List.find (fun (c : Candidate.t) -> Candidate.units_of c = (u1, u2)) cands
  in
  (* {S1,S2} and {S1,S3} share S1. *)
  Alcotest.(check bool) "shared statement conflicts" true
    (Candidate.conflicts ~deps (find 1 2) (find 1 3));
  Alcotest.(check bool) "disjoint independent groups do not" false
    (Candidate.conflicts ~deps (find 1 2) (find 4 5))

(* -- packgraph -------------------------------------------------------------- *)

let test_packgraph_updates () =
  let _, _, _, deps, cands = fig2_candidates () in
  let tbl = Hashtbl.create 8 in
  List.iter (fun (c : Candidate.t) -> Hashtbl.replace tbl c.Candidate.cid c) cands;
  let conflict a b =
    a <> b && Candidate.conflicts ~deps (Hashtbl.find tbl a) (Hashtbl.find tbl b)
  in
  let vp = Packgraph.build ~candidates:cands ~conflict in
  let n0 = Packgraph.node_count vp in
  Alcotest.(check bool) "has nodes" true (n0 > 0);
  let c12 = List.find (fun (c : Candidate.t) -> Candidate.units_of c = (1, 2)) cands in
  (* Deciding {S1,S2} removes its nodes and its conflicting nodes
     (those of {S1,S3}); the nodes of {S4,S5} survive. *)
  Packgraph.remove_decided vp c12.Candidate.cid;
  let c45 = List.find (fun (c : Candidate.t) -> Candidate.units_of c = (4, 5)) cands in
  Alcotest.(check bool) "decided owner gone" false (Packgraph.alive vp c12.Candidate.cid);
  Alcotest.(check bool) "independent candidate survives" true
    (Packgraph.alive vp c45.Candidate.cid)

(* The first-round VP graph of every block of a suite kernel at 512
   bits, prepared and dependence-analysed as the Global scheme does. *)
let first_round_graphs name =
  let kernel = Slp_benchmarks.Suite.find name in
  let factor = kernel.Slp_benchmarks.Suite.unroll * 512 / 128 in
  let prog =
    Slp_benchmarks.Suite.program kernel
    |> Slp_transform.Simplify.fold_program
    |> Slp_transform.Unroll.program ~factor
  in
  let env = prog.Program.env in
  let config = Config.make ~datapath_bits:512 () in
  List.map
    (fun (block, box) ->
      let dep_pairs = Slp_depend.Depend.block_dep_pairs ~box block in
      let units = List.map (Units.of_stmt ~env) block.Block.stmts in
      let deps = Units.Deps.build ~dep_pairs block units in
      let cands = Candidate.find ~env ~config ~units ~deps in
      let tbl = Hashtbl.create 64 in
      List.iter (fun (c : Candidate.t) -> Hashtbl.replace tbl c.Candidate.cid c) cands;
      let conflict a b =
        a <> b && Candidate.conflicts ~deps (Hashtbl.find tbl a) (Hashtbl.find tbl b)
      in
      (cands, conflict, Packgraph.build ~candidates:cands ~conflict))
    (Slp_depend.Depend.blocks_with_box prog)

(* The indexed [matching] must select exactly what a full scan of the
   live nodes selects, for every candidate's pack-type set (joined with
   the packs decided so far), before and after graph updates.  The
   implied edges and the removals are checked against [conflict] too. *)
let test_packgraph_matching_differential () =
  let nids = List.map (fun (n : Packgraph.node) -> n.Packgraph.nid) in
  let norm l = List.sort compare (List.map (fun (a, b) -> (min a b, max a b)) l) in
  let agree ~what ~conflict ~decided vp cands =
    let live = Packgraph.nodes vp in
    List.iter
      (fun (c : Candidate.t) ->
        let cid = c.Candidate.cid in
        let what = Printf.sprintf "%s C%d" what cid in
        let pack_types = Pack.Set.of_list (decided @ c.Candidate.packs) in
        let compatible owner = not (conflict owner cid) in
        let full_scan =
          List.filter
            (fun (n : Packgraph.node) ->
              n.Packgraph.owner <> cid
              && Pack.Set.mem n.Packgraph.pack pack_types
              && compatible n.Packgraph.owner)
            live
        in
        let selected = Packgraph.matching vp ~pack_types ~exclude_owner:cid ~compatible in
        Alcotest.(check (list int)) what (nids full_scan) (nids selected);
        let all_pairs =
          List.concat_map
            (fun (a : Packgraph.node) ->
              List.filter_map
                (fun (b : Packgraph.node) ->
                  if a.Packgraph.nid < b.Packgraph.nid && conflict a.Packgraph.owner b.Packgraph.owner
                  then Some (a.Packgraph.nid, b.Packgraph.nid)
                  else None)
                selected)
            selected
        in
        Alcotest.(check (list (pair int int)))
          (what ^ " edges") (norm all_pairs)
          (norm (Packgraph.edges_among vp selected)))
      cands
  in
  let graphs = List.concat_map first_round_graphs [ "lbm"; "povray"; "ft" ] in
  Alcotest.(check bool) "some graph has nodes" true
    (List.exists (fun (_, _, vp) -> Packgraph.node_count vp > 0) graphs);
  List.iter
    (fun (cands, conflict, vp) ->
      agree ~what:"fresh" ~conflict ~decided:[] vp cands;
      (* Decide every fifth live candidate, discard every seventh other
         one, and compare again after each update. *)
      let decided = ref [] in
      let owners () =
        List.filter_map
          (fun (o : Candidate.t) ->
            if Packgraph.alive vp o.Candidate.cid then Some o.Candidate.cid else None)
          cands
      in
      List.iteri
        (fun i (c : Candidate.t) ->
          let cid = c.Candidate.cid in
          if Packgraph.alive vp cid && (i mod 5 = 0 || i mod 7 = 3) then begin
            let before = List.filter (( <> ) cid) (owners ()) in
            let expected =
              if i mod 5 = 0 then begin
                Packgraph.remove_decided vp cid;
                decided := !decided @ c.Candidate.packs;
                (* Paper step 4: every node connected to the decided
                   candidate's nodes goes too. *)
                List.filter (fun o -> not (conflict cid o)) before
              end
              else begin
                Packgraph.remove_owner vp cid;
                before
              end
            in
            let step = Printf.sprintf "after step %d" i in
            Alcotest.(check (list int)) (step ^ " live owners") expected (owners ());
            (* Weights are only asked of candidates that are still alive. *)
            agree ~what:step ~conflict ~decided:!decided vp
              (List.filter (fun (o : Candidate.t) -> Packgraph.alive vp o.Candidate.cid) cands)
          end)
        cands)
    graphs

(* -- units ------------------------------------------------------------------ *)

let test_units_merge () =
  let env = fig2_env () in
  let block = fig2_block () in
  let units = List.map (Units.of_stmt ~env) block.Block.stmts in
  let u1 = List.nth units 0 and u2 = List.nth units 1 in
  let merged = Units.merge ~uid:99 u1 u2 in
  Alcotest.(check (list int)) "members" [ 1; 2 ] merged.Units.members;
  Alcotest.(check int) "lane count" 2 (Units.lane_count merged);
  Alcotest.(check int) "width" 128 (Units.width_bits merged)

let test_units_deps_acyclicity () =
  let env = fig2_env () in
  let block = fig2_block () in
  let units = List.map (Units.of_stmt ~env) block.Block.stmts in
  let deps = Units.Deps.build block units in
  (* S1 reads V3, S4 writes V3: merging {1,4} is fine on its own; the
     contraction test must also accept independent pairs. *)
  Alcotest.(check bool) "disjoint merge acyclic" true
    (Units.Deps.merged_acyclic deps [ (1, 2); (4, 5) ]);
  (* S2 reads V5 and S3 writes V5 (S2 before S3: WAR), and S3's V5 is
     read by S5... merging {2,3} with {1,2}-style overlaps is the
     grouping's job; here just check a direct cycle is rejected:
     {2,5} and {3, ...}: S2 -> S5 (V2? no) ... use reachability. *)
  Alcotest.(check bool) "dependent pair not mergeable" false
    (Units.Deps.mergeable deps 2 3)

(* -- grouping on the paper's Figure 2 --------------------------------------- *)

let test_fig2_grouping () =
  let env = fig2_env () in
  let block = fig2_block () in
  let r = Grouping.run ~env ~config block in
  (* {S1,S2} has weight 1 (its packs reused by {S4,S5}); {S4,S5}
     likewise; {S1,S3} conflicts with {S1,S2} and loses.  The final
     grouping is {{S1,S2},{S4,S5}} with S3 single. *)
  Alcotest.(check (list (list int)))
    "figure 2 grouping" [ [ 1; 2 ]; [ 4; 5 ] ]
    (List.sort compare (List.map (List.sort compare) r.Grouping.groups));
  Alcotest.(check (list int)) "S3 single" [ 3 ] r.Grouping.singles

(* -- iterative grouping ------------------------------------------------------ *)

let test_iterative_grouping_four_wide () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F32 [ 64 ];
  Env.declare_array env "B" Types.F32 [ 64 ];
  let elem base k = Operand.Elem (base, [ Affine.make [ ("i", 1) ] k ]) in
  let block =
    Block.make ~label:"quad"
      (List.init 4 (fun k ->
           let ix = Affine.make [ ("i", 1) ] k in
           Stmt.make ~id:(k + 1) ~lhs:(elem "A" k)
             ~rhs:Expr.Infix.(arr "B" [ ix ] * cst 2.0)))
  in
  let r = Grouping.run ~env ~config block in
  Alcotest.(check int) "two rounds" 2 r.Grouping.rounds;
  Alcotest.(check (list (list int)))
    "one four-wide group"
    [ [ 1; 2; 3; 4 ] ]
    (List.map (List.sort compare) r.Grouping.groups)

let test_grouping_respects_datapath () =
  (* f64 lanes on 128 bits: groups of two, never four. *)
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 64 ];
  let elem k = Operand.Elem ("A", [ Affine.make [ ("i", 1) ] k ]) in
  let block =
    Block.make ~label:"pairs"
      (List.init 4 (fun k ->
           Stmt.make ~id:(k + 1) ~lhs:(elem (k + 8)) ~rhs:(Expr.Leaf (elem k))))
  in
  let r = Grouping.run ~env ~config block in
  List.iter
    (fun g -> Alcotest.(check int) "group width" 2 (List.length g))
    r.Grouping.groups

let test_grouping_dependence_safety () =
  (* S2 depends on S1; they must never share a group. *)
  let env = Env.create () in
  List.iter (fun v -> Env.declare_scalar env v Types.F64) [ "x"; "y" ];
  Env.declare_array env "A" Types.F64 [ 8 ];
  let block =
    Block.of_rhs
      [
        (Operand.Scalar "x", Expr.Infix.(arr "A" [ Affine.const 0 ] + cst 1.0));
        (Operand.Scalar "y", Expr.Infix.(sc "x" + cst 1.0));
      ]
  in
  let r = Grouping.run ~env ~config block in
  Alcotest.(check (list (list int))) "no groups" [] r.Grouping.groups

(* -- live set ------------------------------------------------------------------ *)

let test_live_set () =
  let live = Live.create ~capacity:2 in
  let sw1 = [ Operand.Scalar "a"; Operand.Scalar "b" ] in
  let sw2 = [ Operand.Scalar "b"; Operand.Scalar "a" ] in
  Live.insert live sw1;
  Alcotest.(check bool) "exact hit" true (Live.mem_exact live sw1);
  Alcotest.(check bool) "exact miss on permutation" false (Live.mem_exact live sw2);
  Alcotest.(check bool) "multiset hit" true
    (Live.mem_multiset live (Pack.of_operands sw2));
  (* Same multiset replaces rather than duplicating. *)
  Live.insert live sw2;
  Alcotest.(check int) "replaced" 1 (Live.size live);
  Alcotest.(check bool) "now the permuted order is exact" true (Live.mem_exact live sw2);
  (* Capacity eviction. *)
  Live.insert live [ Operand.Scalar "c"; Operand.Scalar "d" ];
  Live.insert live [ Operand.Scalar "e"; Operand.Scalar "f" ];
  Alcotest.(check int) "bounded" 2 (Live.size live);
  Alcotest.(check bool) "oldest evicted" false
    (Live.mem_multiset live (Pack.of_operands sw1));
  (* Invalidation by definition. *)
  Live.invalidate live ~defs:[ Operand.Scalar "e" ];
  Alcotest.(check bool) "invalidated" false
    (Live.mem_multiset live (Pack.of_operands [ Operand.Scalar "e"; Operand.Scalar "f" ]))

(* The live set against a test-local copy of the list-based set it
   replaced, which re-sorts every entry on every multiset query and
   tries every pair of entries for the two-source shuffle.  Random
   insert/invalidate sequences over a six-operand alphabet (so packs
   collide, repeat and overlap), checked after every step. *)
module Ref_live = struct
  type t = { mutable entries : Operand.t list list; capacity : int }

  let create ~capacity = { entries = []; capacity }
  let mem_exact t ordered = List.exists (List.equal Operand.equal ordered) t.entries

  let matching t pack =
    List.filter (fun l -> Pack.equal (Pack.of_operands l) pack) t.entries

  let mem_multiset t pack = matching t pack <> []

  let invalidate t ~defs =
    t.entries <-
      List.filter
        (fun l -> not (List.exists (fun d -> List.exists (Operand.may_alias d) l) defs))
        t.entries

  let insert t ordered =
    let pack = Pack.of_operands ordered in
    t.entries <-
      ordered
      :: List.filter (fun l -> not (Pack.equal (Pack.of_operands l) pack)) t.entries;
    if List.length t.entries > t.capacity then
      t.entries <- List.filteri (fun i _ -> i < t.capacity) t.entries

  let coverable_by_two t ordered =
    let entries = t.entries in
    let covers o1 o2 =
      let pool = ref (o1 @ o2) in
      List.for_all
        (fun want ->
          let rec take acc = function
            | [] -> false
            | x :: rest ->
                if Operand.equal x want then begin
                  pool := List.rev_append acc rest;
                  true
                end
                else take (x :: acc) rest
          in
          take [] !pool)
        ordered
    in
    List.exists
      (fun o1 -> List.exists (fun o2 -> (not (o1 == o2)) && covers o1 o2) entries)
      entries
end

let live_alphabet =
  [|
    Operand.Scalar "a";
    Operand.Scalar "b";
    Operand.Scalar "c";
    Operand.Elem ("A", [ Affine.const 0 ]);
    Operand.Elem ("A", [ Affine.const 1 ]);
    Operand.Elem ("A", [ Affine.var "i" ]);
  |]

let test_live_vs_reference () =
  let st = Seeded.rand () in
  let operand () = live_alphabet.(Random.State.int st (Array.length live_alphabet)) in
  let superword () = List.init (1 + Random.State.int st 4) (fun _ -> operand ()) in
  let ops = Alcotest.(list (of_pp (Fmt.of_to_string Operand.to_string))) in
  for case = 0 to 299 do
    let capacity = 1 + Random.State.int st 5 in
    let live = Live.create ~capacity and reference = Ref_live.create ~capacity in
    for step = 0 to 24 do
      let name what = Printf.sprintf "case %d step %d: %s" case step what in
      if Random.State.int st 4 = 0 then begin
        let defs = List.init (1 + Random.State.int st 2) (fun _ -> operand ()) in
        Live.invalidate live ~defs;
        Ref_live.invalidate reference ~defs
      end
      else begin
        let sw = superword () in
        Live.insert live sw;
        Ref_live.insert reference sw
      end;
      Alcotest.(check (list ops)) (name "entries") reference.Ref_live.entries
        (Live.entries live);
      (* Queries: every live entry, a shuffle of it, and fresh draws. *)
      let queries =
        List.concat_map (fun l -> [ l; List.rev l ]) reference.Ref_live.entries
        @ List.init 6 (fun _ -> superword ())
      in
      List.iter
        (fun q ->
          let pack = Pack.of_operands q in
          let what = Printf.sprintf "%s on %s" in
          let shown = Pack.to_string pack in
          Alcotest.(check bool) (name (what "mem_exact" shown))
            (Ref_live.mem_exact reference q) (Live.mem_exact live q);
          Alcotest.(check bool) (name (what "mem_multiset" shown))
            (Ref_live.mem_multiset reference pack) (Live.mem_multiset live pack);
          let seen = ref [] in
          Live.iter_multiset live pack (fun l -> seen := l :: !seen);
          Alcotest.(check (list ops)) (name (what "iter_multiset" shown))
            (Ref_live.matching reference pack) (List.rev !seen);
          Alcotest.(check bool) (name (what "coverable_by_two" shown))
            (Ref_live.coverable_by_two reference q)
            (Live.coverable_by_two live pack))
        queries
    done
  done

(* [Units.Deps] against a test-local copy of the Hashtbl-graph version
   it replaced: build the uid graph, contract each pair into its
   smaller uid, then [has_cycle].  Units get sparse uids in an order
   unrelated to their statements, and statements are dealt to units at
   random, so dependences run both ways between units and can close
   unit-level cycles. *)
let ref_unit_graph units dep_pairs =
  let module G = Slp_util.Graph.Directed in
  let owner = Hashtbl.create 32 in
  List.iter
    (fun (u : Units.t) -> List.iter (fun sid -> Hashtbl.replace owner sid u.Units.uid) u.Units.members)
    units;
  let g = G.create () in
  List.iter (fun (u : Units.t) -> G.add_node g u.Units.uid ()) units;
  List.iter
    (fun (p, q) ->
      match (Hashtbl.find_opt owner p, Hashtbl.find_opt owner q) with
      | Some up, Some uq when up <> uq -> if not (G.mem_edge g up uq) then G.add_edge g up uq
      | _ -> ())
    dep_pairs;
  g

let ref_merged_acyclic g pairs =
  let module G = Slp_util.Graph.Directed in
  let repr = Hashtbl.create 8 in
  let rec find x =
    match Hashtbl.find_opt repr x with
    | None -> x
    | Some p ->
        let r = find p in
        if r <> p then Hashtbl.replace repr x r;
        r
  in
  List.iter
    (fun (a, b) ->
      let ra = find a and rb = find b in
      if ra <> rb then
        if ra < rb then Hashtbl.replace repr rb ra else Hashtbl.replace repr ra rb)
    pairs;
  let c = G.create () in
  List.iter (fun id -> G.add_node c (find id) ()) (G.nodes g);
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          let ru = find u and rv = find v in
          if ru <> rv && not (G.mem_edge c ru rv) then G.add_edge c ru rv)
        (G.succs g u))
    (G.nodes g);
  not (G.has_cycle c)

let test_merged_acyclic_vs_reference () =
  let st = Seeded.rand () in
  let block = Block.make ~label:"synthetic" [] in
  let acyclic = ref 0 and cyclic = ref 0 in
  let permutation n =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  for case = 0 to 499 do
    let n = 2 + Random.State.int st 9 in
    (* Statements 1..n go one to each unit, the rest to any unit. *)
    let sids = n + Random.State.int st n in
    let first = permutation n and rank = permutation n in
    let owner = Array.init sids (fun i -> if i < n then first.(i) else Random.State.int st n) in
    let units =
      List.init n (fun k ->
          {
            Units.uid = (3 * rank.(k)) + 1 + Random.State.int st 3;
            members = List.filter (fun sid -> owner.(sid - 1) = k) (List.init sids (fun i -> i + 1));
            shape = Expr.Leaf (Operand.Const 0.0);
            positions = [||];
            elem_ty = Types.F64;
            mem_dest = false;
          })
    in
    let dep_pairs =
      List.init (Random.State.int st (2 * sids)) (fun _ ->
          let p = 1 + Random.State.int st sids and q = 1 + Random.State.int st sids in
          (min p q, max p q))
      |> List.filter (fun (p, q) -> p <> q)
    in
    let deps = Units.Deps.build ~dep_pairs block units in
    let g = ref_unit_graph units dep_pairs in
    let uids = List.map (fun (u : Units.t) -> u.Units.uid) units in
    let uid () = List.nth uids (Random.State.int st n) in
    let name what = Printf.sprintf "case %d: %s" case what in
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            Alcotest.(check bool) (name (Printf.sprintf "depends %d %d" u v))
              (Slp_util.Graph.Directed.mem_edge g u v) (Units.Deps.depends deps u v);
            Alcotest.(check bool) (name (Printf.sprintf "mergeable %d %d" u v))
              (u <> v
              && (not (Slp_util.Graph.Directed.reachable g u v))
              && not (Slp_util.Graph.Directed.reachable g v u))
              (Units.Deps.mergeable deps u v))
          uids)
      uids;
    for _ = 1 to 8 do
      let pairs = List.init (Random.State.int st 5) (fun _ -> (uid (), uid ())) in
      let expected = ref_merged_acyclic g pairs in
      incr (if expected then acyclic else cyclic);
      Alcotest.(check bool) (name "merged_acyclic") expected
        (Units.Deps.merged_acyclic deps pairs)
    done
  done;
  Alcotest.(check bool) "both verdicts exercised" true (!acyclic > 0 && !cyclic > 0)

(* -- schedule validity ----------------------------------------------------------- *)

let test_schedule_analyze_matches_run () =
  let env = fig2_env () in
  let block = fig2_block () in
  let g = Grouping.run ~env ~config block in
  let s = Schedule.run ~env ~config block g in
  let replay = Schedule.analyze ~config block s.Schedule.items in
  Alcotest.(check int) "direct reuses agree" s.Schedule.stats.Schedule.direct_reuses
    replay.Schedule.stats.Schedule.direct_reuses;
  Alcotest.(check int) "permuted reuses agree" s.Schedule.stats.Schedule.permuted_reuses
    replay.Schedule.stats.Schedule.permuted_reuses

let test_schedule_invalid_detected () =
  let env = fig2_env () in
  let block = fig2_block () in
  (* A "schedule" that reorders a dependent pair is invalid. *)
  let bogus =
    {
      Schedule.items =
        [ Schedule.Single 5; Schedule.Single 4; Schedule.Single 3; Schedule.Single 2;
          Schedule.Single 1 ];
      stats =
        { Schedule.direct_reuses = 0; permuted_reuses = 0; packed_sources = 0;
          permutations = 0 };
    }
  in
  ignore env;
  Alcotest.(check bool) "reversed order invalid" false (Schedule.is_valid block bogus)

(* -- cost model -------------------------------------------------------------------- *)

let simple_query =
  {
    Cost.contiguous =
      (fun ops ->
        match ops with
        | Operand.Elem _ :: _ ->
            let rec chain = function
              | [] | [ _ ] -> true
              | Operand.Elem (a, [ i1 ]) :: (Operand.Elem (b, [ i2 ]) :: _ as rest) ->
                  String.equal a b && Affine.diff_const i2 i1 = Some 1 && chain rest
              | _ -> false
            in
            chain ops
        | _ -> false);
    aligned = (fun _ -> true);
    scalar_live_out = (fun _ -> false);
  }

let test_cost_prefers_contiguous () =
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ 64 ];
  Env.declare_array env "B" Types.F64 [ 64 ];
  let elem base k = Operand.Elem (base, [ Affine.make [ ("i", 1) ] k ]) in
  let contiguous_block =
    Block.make
      (List.init 2 (fun k ->
           let ix = Affine.make [ ("i", 1) ] k in
           Stmt.make ~id:(k + 1) ~lhs:(elem "A" k)
             ~rhs:Expr.Infix.(arr "B" [ ix ] * cst 2.0)))
  in
  let strided_block =
    Block.make
      (List.init 2 (fun k ->
           let ix = Affine.make [ ("i", 2) ] (2 * k) in
           Stmt.make ~id:(k + 1) ~lhs:(elem "A" k)
             ~rhs:Expr.Infix.(arr "B" [ ix ] * cst 2.0)))
  in
  let estimate block =
    let g = Grouping.run ~env ~config block in
    let s = Schedule.run ~env ~config block g in
    Cost.estimate ~query:simple_query block s
  in
  let c = estimate contiguous_block and s = estimate strided_block in
  Alcotest.(check bool) "contiguous cheaper than strided" true
    (c.Cost.vector_cost < s.Cost.vector_cost);
  Alcotest.(check bool) "contiguous profitable" true
    (c.Cost.vector_cost < c.Cost.scalar_cost)

let test_cost_counts_reuse () =
  (* A block where the same superword is used twice: second use free. *)
  let env = Env.create () in
  List.iter (fun v -> Env.declare_scalar env v Types.F64) [ "a"; "b"; "c"; "d" ];
  Env.declare_array env "A" Types.F64 [ 64 ];
  let elem k = Operand.Elem ("A", [ Affine.make [ ("i", 1) ] k ]) in
  let block =
    Block.of_rhs
      [
        (Operand.Scalar "a", Expr.Infix.(arr "A" [ Affine.var "i" ] + cst 1.0));
        (Operand.Scalar "b", Expr.Infix.(arr "A" [ Affine.add (Affine.var "i") (Affine.const 1) ] + cst 2.0));
        (Operand.Scalar "c", Expr.Infix.(sc "a" * cst 2.0));
        (Operand.Scalar "d", Expr.Infix.(sc "b" * cst 2.0));
      ]
  in
  ignore elem;
  let g = Grouping.run ~env ~config block in
  let s = Schedule.run ~env ~config block g in
  Alcotest.(check bool) "at least one reuse" true
    (s.Schedule.stats.Schedule.direct_reuses + s.Schedule.stats.Schedule.permuted_reuses
    >= 1)

(* -- config -------------------------------------------------------------------------- *)

let test_config () =
  Alcotest.(check int) "f64 lanes at 128" 2 (Config.max_lanes config Types.F64);
  Alcotest.(check int) "f32 lanes at 128" 4 (Config.max_lanes config Types.F32);
  Alcotest.(check int) "i8 lanes at 128" 16 (Config.max_lanes config Types.I8);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Config.make: datapath_bits must be a positive multiple of 64")
    (fun () -> ignore (Config.make ~datapath_bits:100 ()))

(* -- schedule determinism ------------------------------------------------- *)

(* Two independent isomorphic pairs with no reuses between them: every
   selection step is a pure tie.  The tie-break must be program order,
   and must not depend on the order the grouping lists the groups. *)
let tie_env () =
  let env = Env.create () in
  List.iter (fun a -> Env.declare_array env a Types.F64 [ 64 ]) [ "A"; "B"; "C" ];
  env

let tie_block () =
  let e a k = Operand.Elem (a, [ Affine.const k ]) in
  let s id a k =
    Stmt.make ~id ~lhs:(e a k) ~rhs:(Expr.Bin (Types.Add, Expr.Leaf (e "B" k), Expr.Leaf (e "C" k)))
  in
  Block.make ~label:"tie" [ s 1 "A" 0; s 2 "A" 1; s 3 "A" 8; s 4 "A" 9 ]

let tie_grouping groups =
  { Grouping.groups; singles = []; rounds = 1; decisions = List.length groups }

let test_schedule_tie_break_program_order () =
  let env = tie_env () and block = tie_block () in
  let s = Schedule.run ~env ~config block (tie_grouping [ [ 1; 2 ]; [ 3; 4 ] ]) in
  Alcotest.(check (list int)) "program order on ties" [ 1; 2; 3; 4 ]
    (Schedule.scheduled_stmt_ids s)

let test_schedule_group_order_independent () =
  let env = tie_env () and block = tie_block () in
  let a = Schedule.run ~env ~config block (tie_grouping [ [ 1; 2 ]; [ 3; 4 ] ]) in
  let b = Schedule.run ~env ~config block (tie_grouping [ [ 3; 4 ]; [ 1; 2 ] ]) in
  Alcotest.(check (list int)) "grouping order irrelevant"
    (Schedule.scheduled_stmt_ids a) (Schedule.scheduled_stmt_ids b)

let test_schedule_repeatable () =
  (* Same inputs, same schedule — across options and repeated runs. *)
  let env = fig2_env () and block = fig2_block () in
  let g = Grouping.run ~env ~config block in
  List.iter
    (fun options ->
      let a = Schedule.run ~options ~env ~config block g in
      let b = Schedule.run ~options ~env ~config block g in
      Alcotest.(check (list int)) "repeatable" (Schedule.scheduled_stmt_ids a)
        (Schedule.scheduled_stmt_ids b))
    [
      Schedule.default_options;
      { Schedule.selection = Schedule.Program_order; ordering_search = Schedule.Exhaustive };
    ]

let () =
  Alcotest.run "slp_core"
    [
      ("pack", [ Alcotest.test_case "multiset semantics" `Quick test_pack_multiset ]);
      ( "figure2",
        [
          Alcotest.test_case "candidate identification" `Quick test_fig2_candidates;
          Alcotest.test_case "weight 2/3 (Figures 4-6)" `Quick test_fig2_weight;
          Alcotest.test_case "conflicts" `Quick test_fig2_conflicts;
          Alcotest.test_case "grouping decision" `Quick test_fig2_grouping;
        ] );
      ( "packgraph",
        [
          Alcotest.test_case "decided-node removal" `Quick test_packgraph_updates;
          Alcotest.test_case "pack index vs full scan" `Quick
            test_packgraph_matching_differential;
        ] );
      ( "units",
        [
          Alcotest.test_case "merge" `Quick test_units_merge;
          Alcotest.test_case "dependence safety" `Quick test_units_deps_acyclicity;
          Alcotest.test_case "array graph vs Hashtbl graph" `Quick
            test_merged_acyclic_vs_reference;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "iterative four-wide" `Quick test_iterative_grouping_four_wide;
          Alcotest.test_case "datapath bound" `Quick test_grouping_respects_datapath;
          Alcotest.test_case "dependence safety" `Quick test_grouping_dependence_safety;
        ] );
      ( "live",
        [
          Alcotest.test_case "live superword set" `Quick test_live_set;
          Alcotest.test_case "keyed entries vs re-sorting reference" `Quick
            test_live_vs_reference;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "analyze matches run" `Quick test_schedule_analyze_matches_run;
          Alcotest.test_case "invalid schedules detected" `Quick test_schedule_invalid_detected;
          Alcotest.test_case "tie-break is program order" `Quick
            test_schedule_tie_break_program_order;
          Alcotest.test_case "independent of grouping order" `Quick
            test_schedule_group_order_independent;
          Alcotest.test_case "repeatable across runs" `Quick test_schedule_repeatable;
        ] );
      ( "cost",
        [
          Alcotest.test_case "contiguity matters" `Quick test_cost_prefers_contiguous;
          Alcotest.test_case "reuse captured" `Quick test_cost_counts_reuse;
        ] );
      ("config", [ Alcotest.test_case "lane math" `Quick test_config ]);
    ]
