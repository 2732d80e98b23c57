(* Tests for the core SLP machinery: packs, candidates, the variable
   pack conflicting graph, auxiliary-graph weights (including the
   paper's 2/3 example from Figures 4-6), grouping, scheduling, the
   live superword set and the cost model.  Weights and the unit
   dependence graph are compared with references on a test-local
   adjacency-set graph ([Ref_graph]), never with the arrays under
   test. *)

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
  let deps = Units.Deps.build ~dep_pairs:(Block.dep_pairs block) units in
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
  let vp = Packgraph.build ~deps ~candidates:cands in
  let c45 =
    List.find (fun (c : Candidate.t) -> Candidate.units_of c = (4, 5)) cands
  in
  let w = Groupgraph.weight ~vp ~elimination:Groupgraph.Max_degree ~cand:c45 in
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
  let vp = Packgraph.build ~deps ~candidates:cands in
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

(* Test-local graphs for the references below: adjacency sets keyed
   by node id, with only the operations the references call.  They
   share no code with the dense arrays under test. *)
module Ref_graph = struct
  module S = Set.Make (Int)

  (* Node id -> the ids its arcs lead to; an undirected edge is an arc
     each way. *)
  type t = (int, S.t) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let add_node g id = if not (Hashtbl.mem g id) then Hashtbl.replace g id S.empty
  let adj g id = Hashtbl.find g id
  let nodes g = List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) g [])
  let node_count g = Hashtbl.length g
  let mem_arc g u v = S.mem v (adj g u)
  let add_arc g u v = Hashtbl.replace g u (S.add v (adj g u))

  let add_edge g u v =
    add_arc g u v;
    add_arc g v u

  let degree g id = S.cardinal (adj g id)
  let is_edgeless g = Hashtbl.fold (fun _ a acc -> acc && S.is_empty a) g true

  (* Undirected graphs only: drops the neighbours' arcs back to [id]. *)
  let remove_node g id =
    S.iter (fun nb -> Hashtbl.replace g nb (S.remove id (adj g nb))) (adj g id);
    Hashtbl.remove g id

  (* The highest degree (at least 1), ties to the lowest id. *)
  let max_degree_node g =
    List.fold_left
      (fun best id ->
        let d = degree g id in
        match best with
        | Some (_, bd) when bd >= d -> best
        | _ -> if d > 0 then Some (id, d) else best)
      None (nodes g)
    |> Option.map fst

  (* A path from [u] to [v], the empty one included. *)
  let reachable g u v =
    let seen = Hashtbl.create 16 in
    let rec go x =
      x = v
      || (not (Hashtbl.mem seen x))
         && begin
              Hashtbl.replace seen x ();
              S.exists go (adj g x)
            end
    in
    go u

  (* Depth-first search for an arc back to a node on the stack. *)
  let has_cycle g =
    let on_stack = Hashtbl.create 16 and finished = Hashtbl.create 16 in
    let rec visit x =
      Hashtbl.mem on_stack x
      || (not (Hashtbl.mem finished x))
         && begin
              Hashtbl.replace on_stack x ();
              let cycle = S.exists visit (adj g x) in
              Hashtbl.remove on_stack x;
              Hashtbl.replace finished x ();
              cycle
            end
    in
    List.exists visit (nodes g)
end

(* A test-local weight on the paper's node-level auxiliary graph, built
   directly: one node per pack of every candidate (nids in candidate
   order, pack by pack), a full scan
   for the live nodes matching the pack types of D ∪ {C}, node-pair
   edges from [conflict], and greedy elimination on a [Ref_graph]: the
   highest degree, ties to the lowest nid ([Max_degree]), or the lowest
   nid with an edge ([Arbitrary]). *)
module Ref_weight = struct
  module G = Ref_graph

  let nodes cands =
    let next = ref 0 in
    List.concat_map
      (fun (c : Candidate.t) ->
        List.map
          (fun p ->
            let nid = !next in
            incr next;
            (nid, p, c.Candidate.cid))
          c.Candidate.packs)
      cands

  let weight ~nodes ~alive ~conflict ~elimination ~decided (cand : Candidate.t) =
    let cid = cand.Candidate.cid in
    let all_packs = decided @ cand.Candidate.packs in
    let types = Pack.Set.of_list all_packs in
    if Pack.Set.is_empty types then 0.0
    else begin
      let selected =
        List.filter
          (fun (_, p, o) -> o <> cid && alive o && Pack.Set.mem p types && not (conflict o cid))
          nodes
      in
      let g = G.create () in
      List.iter (fun (nid, _, _) -> G.add_node g nid) selected;
      List.iter
        (fun (a, _, oa) ->
          List.iter (fun (b, _, ob) -> if a < b && conflict oa ob then G.add_edge g a b) selected)
        selected;
      let rec eliminate () =
        if not (G.is_edgeless g) then begin
          (match elimination with
          | Groupgraph.Max_degree -> G.max_degree_node g
          | Groupgraph.Arbitrary -> List.find_opt (fun id -> G.degree g id > 0) (G.nodes g))
          |> Option.iter (G.remove_node g);
          eliminate ()
        end
      in
      eliminate ();
      let types = Pack.Set.cardinal types in
      float_of_int (G.node_count g + List.length all_packs - types) /. float_of_int types
    end
end

(* First-round candidates of a block, with a conflict relation that
   does not go through the unit matrix: a shared unit, or direct
   dependences both ways read off the statement pairs (a first-round
   unit is one statement, its uid the statement id). *)
let first_round ~env ~config ~dep_pairs (block : Block.t) =
  let units = List.map (Units.of_stmt ~env) block.Block.stmts in
  let deps = Units.Deps.build ~dep_pairs units in
  let cands = Candidate.find ~env ~config ~units ~deps in
  let pairs = Hashtbl.create 64 in
  List.iter (fun pq -> Hashtbl.replace pairs pq ()) dep_pairs;
  let by_cid = Hashtbl.create 64 in
  List.iter (fun (c : Candidate.t) -> Hashtbl.replace by_cid c.Candidate.cid c) cands;
  let dep x1 x2 y1 y2 =
    List.exists
      (fun (x, y) -> x <> y && Hashtbl.mem pairs (x, y))
      [ (x1, y1); (x1, y2); (x2, y1); (x2, y2) ]
  in
  let conflict a b =
    a <> b
    &&
    let (ca : Candidate.t) = Hashtbl.find by_cid a and (cb : Candidate.t) = Hashtbl.find by_cid b in
    Candidate.shares_unit ca cb
    || dep ca.Candidate.u1 ca.Candidate.u2 cb.Candidate.u1 cb.Candidate.u2
       && dep cb.Candidate.u1 cb.Candidate.u2 ca.Candidate.u1 ca.Candidate.u2
  in
  (deps, cands, conflict)

(* [Groupgraph.weight] on the owner quotient must give the node-level
   reference's float, under both elimination rules, for every live
   candidate: on the fresh graph and after each step of a walk that
   decides every fifth live candidate and discards every seventh other
   one.  Liveness after each step is checked too.  Returns the number
   of weights compared. *)
let quotient_agrees ~what (deps, cands, conflict) =
  let vp = Packgraph.build ~deps ~candidates:cands in
  let nodes = Ref_weight.nodes cands in
  let live = Hashtbl.create 64 in
  List.iter (fun (c : Candidate.t) -> Hashtbl.replace live c.Candidate.cid ()) cands;
  let alive o = Hashtbl.mem live o in
  let decided = ref [] and compared = ref 0 in
  let agree what =
    List.iter
      (fun (c : Candidate.t) ->
        if alive c.Candidate.cid then
          List.iter
            (fun (rule, elimination) ->
              incr compared;
              let expected =
                Ref_weight.weight ~nodes ~alive ~conflict ~elimination ~decided:!decided c
              in
              let got = Groupgraph.weight ~vp ~elimination ~cand:c in
              if not (Float.equal expected got) then
                Alcotest.failf "%s C%d %s: node-level %h, quotient %h" what c.Candidate.cid rule
                  expected got)
            [ ("max-degree", Groupgraph.Max_degree); ("arbitrary", Groupgraph.Arbitrary) ])
      cands
  in
  agree (what ^ " fresh");
  List.iteri
    (fun i (c : Candidate.t) ->
      let cid = c.Candidate.cid in
      if alive cid && (i mod 5 = 0 || i mod 7 = 3) then begin
        if i mod 5 = 0 then begin
          Packgraph.remove_decided vp cid;
          decided := !decided @ c.Candidate.packs;
          (* Paper step 4: every owner conflicting with the decided
             candidate goes too. *)
          List.iter
            (fun (o : Candidate.t) ->
              if o.Candidate.cid = cid || conflict cid o.Candidate.cid then
                Hashtbl.remove live o.Candidate.cid)
            cands
        end
        else begin
          Packgraph.remove_owner vp cid;
          Hashtbl.remove live cid
        end;
        let what = Printf.sprintf "%s after step %d" what i in
        List.iter
          (fun (o : Candidate.t) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: C%d live" what o.Candidate.cid)
              (alive o.Candidate.cid) (Packgraph.alive vp o.Candidate.cid))
          cands;
        agree what
      end)
    cands;
  !compared

(* The first-round graph of every block of a suite kernel at 512 bits,
   prepared and dependence-analysed as the Global scheme does. *)
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
      first_round ~env ~config ~dep_pairs:(Slp_depend.Depend.block_dep_pairs ~box block) block)
    (Slp_depend.Depend.blocks_with_box prog)

let test_quotient_weight () =
  let graphs = List.concat_map first_round_graphs [ "lbm"; "povray"; "ft" ] in
  let compared = List.fold_left (fun n g -> n + quotient_agrees ~what:"suite" g) 0 graphs in
  Alcotest.(check bool) "weights compared" true (compared > 0)

(* The same on the first round of every block of generated kernels, at
   128 bits (unroll 2) or 256 bits (unroll 4). *)
let quotient_weight_generated =
  QCheck.Test.make ~name:"quotient weight vs node-level weight, generated blocks" ~count:60
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, wide) ->
      let bits, unroll = if wide then (256, 4) else (128, 2) in
      let prog =
        Slp_fuzz.Gen.program ~name:"qw" (Slp_util.Prng.create seed)
        |> Slp_transform.Simplify.fold_program
        |> Slp_transform.Unroll.program ~factor:unroll
      in
      let config = Config.make ~datapath_bits:bits () in
      List.iter
        (fun (site : Slp_core.Driver.site) ->
          ignore
            (quotient_agrees ~what:(Printf.sprintf "seed %d" seed)
               (first_round ~env:prog.Program.env ~config ~dep_pairs:site.Slp_core.Driver.deps
                  site.Slp_core.Driver.block)))
        (Slp_core.Driver.sites ~precise:true prog);
      true)

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
  let deps = Units.Deps.build ~dep_pairs:(Block.dep_pairs block) units in
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

(* [Units.Deps.join], the exact solver's incremental cycle check,
   against [merged_acyclic] on the whole list.  On each block of a
   generated kernel (unrolled, so that isomorphic statements abound),
   the statements are dealt at random into disjoint parts of two to
   four mutually compatible statements ([Optimal.compatible]: isomorphic
   and independent, the solver's packs).  The parts are offered in turn;
   those [join] accepts stay, so the contracted prefix is always
   acyclic, and each verdict must equal [merged_acyclic] on the pairs
   of the accepted parts plus the new one.  The parts then [leave] in
   reverse order and the same sequence must get the same verdicts
   again.  [cyclic] counts the rejections, so the caller can tell the
   property met some cycles. *)
let cyclic = ref 0

let incremental_cycle_check =
  QCheck.Test.make ~name:"incremental cycle check = merged_acyclic" ~count:100
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, wide) ->
      let prog =
        Slp_fuzz.Gen.program ~name:"cyc" (Slp_util.Prng.create seed)
        |> Slp_transform.Simplify.fold_program
        |> Slp_transform.Unroll.program ~factor:(if wide then 4 else 2)
      in
      let env = prog.Program.env in
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun ({ Slp_core.Driver.block; deps; _ } : Slp_core.Driver.site) ->
          let stmts = Array.of_list block.Block.stmts in
          let n = Array.length stmts in
          let graph = Units.Deps.build ~dep_pairs:deps (List.map (Units.of_stmt ~env) block.Block.stmts) in
          let index i = Units.Deps.index_of graph stmts.(i).Stmt.id in
          let free = Array.make n true in
          let order = Array.init n Fun.id in
          for i = n - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- t
          done;
          let parts = ref [] in
          Array.iter
            (fun a ->
              if free.(a) then begin
                let size = 2 + Random.State.int st 3 in
                let members = ref [ a ] in
                Array.iter
                  (fun b ->
                    if
                      free.(b) && List.length !members < size
                      && List.for_all
                           (fun m -> Slp_core.Optimal.compatible ~env ~deps stmts.(m) stmts.(b))
                           !members
                    then members := b :: !members)
                  order;
                if List.length !members >= 2 then begin
                  List.iter (fun m -> free.(m) <- false) !members;
                  parts := Array.of_list (List.sort compare (List.map index !members)) :: !parts
                end
              end)
            order;
          let parts = List.rev !parts in
          let c = Units.Deps.contraction graph in
          let ids = Array.make n 0 in
          Array.iteri (fun i (s : Stmt.t) -> ids.(index i) <- s.Stmt.id) stmts;
          let pairs part = List.map (fun m -> (ids.(part.(0)), ids.(m))) (List.tl (Array.to_list part)) in
          let run () =
            let accepted = ref [] in
            let verdicts =
              List.map
                (fun part ->
                  let expected =
                    Units.Deps.merged_acyclic graph (List.concat_map pairs (part :: !accepted))
                  in
                  let got = Units.Deps.join c part in
                  if got <> expected then
                    QCheck.Test.fail_reportf "seed %d, block %s: join says %b, merged_acyclic %b"
                      seed block.Block.label got expected;
                  if got then accepted := part :: !accepted else incr cyclic;
                  got)
                parts
            in
            List.iter (Units.Deps.leave c) !accepted;
            verdicts
          in
          let first = run () in
          first = run ())
        (Slp_core.Driver.sites ~precise:true prog))

let test_incremental_cycle_check () =
  cyclic := 0;
  QCheck.Test.check_exn ~rand:(Seeded.rand ()) incremental_cycle_check;
  Alcotest.(check bool) "some part closed a cycle" true (!cyclic > 0)

(* -- grouping on the paper's Figure 2 --------------------------------------- *)

let test_fig2_grouping () =
  let env = fig2_env () in
  let block = fig2_block () in
  let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
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
  let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
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
  let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
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
  let r = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  Alcotest.(check (list (list int))) "no groups" [] r.Grouping.groups

(* Grouping memory stays linear in the candidates: a 256-statement
   independent isomorphic block at 512 bits has 32,640 candidates, and a
   structure over candidate pairs would cost a gigabyte.  Under a
   1-step budget the round builds its candidates and VP graph, then
   bails at its first decision. *)
(* 256 independent isomorphic statements [B[k] = A[k] * 2.0]: 32,640
   candidate pairs at 512 bits. *)
let wide_block () =
  let n = 256 in
  let env = Env.create () in
  Env.declare_array env "A" Types.F64 [ n ];
  Env.declare_array env "B" Types.F64 [ n ];
  let block =
    Block.make ~label:"wide"
      (List.init n (fun k ->
           Stmt.make ~id:(k + 1)
             ~lhs:(Operand.Elem ("B", [ Affine.const k ]))
             ~rhs:Expr.Infix.(arr "A" [ Affine.const k ] * cst 2.0)))
  in
  (env, block)

let test_grouping_memory_linear () =
  let env, block = wide_block () in
  let module E = Slp_util.Slp_error in
  let fuel = E.Fuel.create ~pass:E.Grouping ~budget:1 () in
  let before = Gc.allocated_bytes () in
  (match
     Grouping.run ~fuel ~dep_pairs:(Block.dep_pairs block) ~env
       ~config:(Config.make ~datapath_bits:512 ())
       block
   with
  | _ -> Alcotest.fail "grouping finished within one step"
  | exception E.Error e ->
      Alcotest.(check string) "bail code" "BAIL11-fuel" (E.code_name e.E.code));
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  if mb >= 512.0 then Alcotest.failf "grouping allocated %.0f MB (limit 512 MB)" mb

(* [Units.Deps.mergeable] on every isomorphic pair of the same block
   reads each unit's reachable row, filled once: about 25 MB in all.
   A depth-first search per pair allocated 167 MB. *)
let test_candidate_memory_budget () =
  let env, block = wide_block () in
  let units = List.map (Units.of_stmt ~env) block.Block.stmts in
  let deps = Units.Deps.build ~dep_pairs:(Block.dep_pairs block) units in
  let before = Gc.allocated_bytes () in
  let cands =
    Candidate.find ~env ~config:(Config.make ~datapath_bits:512 ()) ~units ~deps
  in
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  Alcotest.(check int) "every pair a candidate" (256 * 255 / 2) (List.length cands);
  if mb >= 64.0 then Alcotest.failf "Candidate.find allocated %.0f MB (limit 64 MB)" mb

(* Grouping pinned under every option set.  Plan digests pin only the
   default options; these hashes also pin [Arbitrary] elimination,
   static weights and the scattered-store retry.  The blocks are the
   precise sites of every suite kernel at 128, 256 and 512 bits
   (unroll scaled to the width) and of 300 generated kernels at 128
   bits, unroll 2.  One hash covers each [Grouping.run] result, one
   every [GRP-*] remark (they print the weights to two decimals).  Only
   a change that means to change groupings may re-record them, giving
   the old and new values. *)
let pinned_groupings = "a1fe45d587bfe568"
let pinned_grouping_remarks = "7c9e2d1782cbae3c"

let pin_option_sets =
  let d = Grouping.default_options in
  List.concat_map
    (fun elimination ->
      List.map
        (fun recompute_weights -> { d with Grouping.elimination; recompute_weights })
        [ true; false ])
    [ Groupgraph.Max_degree; Groupgraph.Arbitrary ]
  @ [ { d with Grouping.exclude_scattered = true } ]

let pin_sites () =
  let prepared ~bits ~unroll prog =
    let prog =
      Slp_transform.Simplify.fold_program prog |> Slp_transform.Unroll.program ~factor:unroll
    in
    let config = Config.make ~datapath_bits:bits () in
    List.map
      (fun site -> (prog.Program.env, config, site))
      (Slp_core.Driver.sites ~precise:true prog)
  in
  let suite =
    List.concat_map
      (fun bits ->
        List.concat_map
          (fun (k : Slp_benchmarks.Suite.t) ->
            prepared ~bits
              ~unroll:(max 1 (k.Slp_benchmarks.Suite.unroll * bits / 128))
              (Slp_benchmarks.Suite.program k))
          Slp_benchmarks.Suite.all)
      [ 128; 256; 512 ]
  in
  let generated =
    List.concat_map
      (fun seed ->
        prepared ~bits:128 ~unroll:2
          (Slp_fuzz.Gen.program
             ~name:(Printf.sprintf "grp%d" seed)
             (Slp_util.Prng.create seed)))
      (List.init 300 (fun i -> 5000 + i))
  in
  suite @ generated

let test_groupings_pinned () =
  let module Fnv = Slp_util.Fnv in
  let ints l = String.concat "," (List.map string_of_int l) in
  let h = ref (Fnv.hash64 "") and r = ref (Fnv.hash64 "") in
  let sites = pin_sites () in
  List.iter
    (fun options ->
      List.iter
        (fun (env, config, (site : Slp_core.Driver.site)) ->
          let obs = Slp_obs.Obs.create ~remarks:true () in
          let g =
            Grouping.run ~options ~obs ~dep_pairs:site.Slp_core.Driver.deps ~env ~config
              site.Slp_core.Driver.block
          in
          h :=
            Fnv.combine !h
              (Printf.sprintf "%s|%d|%d|%s" (ints g.Grouping.singles) g.Grouping.rounds
                 g.Grouping.decisions
                 (String.concat ";" (List.map ints g.Grouping.groups)));
          List.iter
            (fun (rk : Slp_obs.Remark.t) ->
              r := Fnv.combine !r (Format.asprintf "%a" Slp_obs.Remark.pp rk))
            (Slp_obs.Obs.remarks obs))
        sites)
    pin_option_sets;
  Alcotest.(check string) "groupings" pinned_groupings (Slp_util.Fnv.to_hex !h);
  Alcotest.(check string) "GRP remarks" pinned_grouping_remarks (Slp_util.Fnv.to_hex !r)

(* -- live set ------------------------------------------------------------------ *)

(* The live set works on operand ids.  The interner for a handful of
   operands is the facts of a block that defines each of them once, so
   each also has the ids its definition may alias. *)
let interner ops =
  Schedule.Facts.make ~deps:[]
    (Block.of_rhs (List.map (fun op -> (op, Expr.Leaf (Operand.Const 0.0))) ops))

let lane_ids facts ops = Array.of_list (List.map (Schedule.Facts.id facts) ops)

let key_ids facts ops =
  let key = lane_ids facts ops in
  Array.sort Int.compare key;
  key

let live_insert facts live ops =
  Live.insert live ~lanes:(lane_ids facts ops) ~key:(key_ids facts ops)

let clobbered facts defs =
  Array.of_list
    (List.sort_uniq Int.compare
       (List.concat_map
          (fun d -> Array.to_list (Schedule.Facts.clobbers facts (Schedule.Facts.id facts d)))
          defs))

let lane_operands facts lanes = Array.to_list (Array.map (Schedule.Facts.operand facts) lanes)

let test_live_set () =
  let facts = interner (List.map (fun v -> Operand.Scalar v) [ "a"; "b"; "c"; "d"; "e"; "f" ]) in
  let live = Live.create ~capacity:2 in
  let sw1 = [ Operand.Scalar "a"; Operand.Scalar "b" ] in
  let sw2 = [ Operand.Scalar "b"; Operand.Scalar "a" ] in
  live_insert facts live sw1;
  Alcotest.(check bool) "exact hit" true (Live.mem_exact live (lane_ids facts sw1));
  Alcotest.(check bool) "exact miss on permutation" false
    (Live.mem_exact live (lane_ids facts sw2));
  Alcotest.(check bool) "multiset hit" true (Live.mem_multiset live (key_ids facts sw2));
  (* Same multiset replaces rather than duplicating. *)
  live_insert facts live sw2;
  Alcotest.(check int) "replaced" 1 (Live.size live);
  Alcotest.(check bool) "now the permuted order is exact" true
    (Live.mem_exact live (lane_ids facts sw2));
  (* Capacity eviction. *)
  live_insert facts live [ Operand.Scalar "c"; Operand.Scalar "d" ];
  live_insert facts live [ Operand.Scalar "e"; Operand.Scalar "f" ];
  Alcotest.(check int) "bounded" 2 (Live.size live);
  Alcotest.(check bool) "oldest evicted" false (Live.mem_multiset live (key_ids facts sw1));
  (* Invalidation by definition. *)
  Live.invalidate live (clobbered facts [ Operand.Scalar "e" ]);
  Alcotest.(check bool) "invalidated" false
    (Live.mem_multiset live (key_ids facts [ Operand.Scalar "e"; Operand.Scalar "f" ]))

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
  let facts = interner (Array.to_list live_alphabet) in
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
        Live.invalidate live (clobbered facts defs);
        Ref_live.invalidate reference ~defs
      end
      else begin
        let sw = superword () in
        live_insert facts live sw;
        Ref_live.insert reference sw
      end;
      Alcotest.(check (list ops)) (name "entries") reference.Ref_live.entries
        (List.map (lane_operands facts) (Live.entries live));
      (* Queries: every live entry, a shuffle of it, and fresh draws. *)
      let queries =
        List.concat_map (fun l -> [ l; List.rev l ]) reference.Ref_live.entries
        @ List.init 6 (fun _ -> superword ())
      in
      List.iter
        (fun q ->
          let pack = Pack.of_operands q in
          let key = key_ids facts q in
          let what = Printf.sprintf "%s on %s" in
          let shown = Pack.to_string pack in
          Alcotest.check ops (name (what "key is the pack" shown))
            (Pack.operands pack) (lane_operands facts key);
          Alcotest.(check bool) (name (what "mem_exact" shown))
            (Ref_live.mem_exact reference q) (Live.mem_exact live (lane_ids facts q));
          Alcotest.(check bool) (name (what "mem_multiset" shown))
            (Ref_live.mem_multiset reference pack) (Live.mem_multiset live key);
          let seen = ref [] in
          Live.iter_multiset live key (fun l -> seen := lane_operands facts l :: !seen);
          Alcotest.(check (list ops)) (name (what "iter_multiset" shown))
            (Ref_live.matching reference pack) (List.rev !seen);
          Alcotest.(check bool) (name (what "coverable_by_two" shown))
            (Ref_live.coverable_by_two reference q)
            (Live.coverable_by_two live key))
        queries
    done
  done

(* [Units.Deps] against a test-local copy of the Hashtbl-graph version
   it replaced, on a [Ref_graph]: build the uid graph, contract each
   pair into its smaller uid, then [has_cycle].  Units get sparse uids
   in an order unrelated to their statements, and statements are dealt
   to units at random, so dependences run both ways between units and
   can close unit-level cycles. *)
let ref_unit_graph units dep_pairs =
  let module G = Ref_graph in
  let owner = Hashtbl.create 32 in
  List.iter
    (fun (u : Units.t) -> List.iter (fun sid -> Hashtbl.replace owner sid u.Units.uid) u.Units.members)
    units;
  let g = G.create () in
  List.iter (fun (u : Units.t) -> G.add_node g u.Units.uid) units;
  List.iter
    (fun (p, q) ->
      match (Hashtbl.find_opt owner p, Hashtbl.find_opt owner q) with
      | Some up, Some uq when up <> uq -> G.add_arc g up uq
      | _ -> ())
    dep_pairs;
  g

let ref_merged_acyclic g pairs =
  let module G = Ref_graph in
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
  List.iter (fun id -> G.add_node c (find id)) (G.nodes g);
  List.iter
    (fun u ->
      G.S.iter
        (fun v ->
          let ru = find u and rv = find v in
          if ru <> rv then G.add_arc c ru rv)
        (G.adj g u))
    (G.nodes g);
  not (G.has_cycle c)

let test_merged_acyclic_vs_reference () =
  let st = Seeded.rand () in
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
    let deps = Units.Deps.build ~dep_pairs units in
    let g = ref_unit_graph units dep_pairs in
    let uids = List.map (fun (u : Units.t) -> u.Units.uid) units in
    let uid () = List.nth uids (Random.State.int st n) in
    let name what = Printf.sprintf "case %d: %s" case what in
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            Alcotest.(check bool) (name (Printf.sprintf "depends %d %d" u v))
              (Ref_graph.mem_arc g u v) (Units.Deps.depends deps u v);
            Alcotest.(check bool) (name (Printf.sprintf "mergeable %d %d" u v))
              (u <> v && (not (Ref_graph.reachable g u v)) && not (Ref_graph.reachable g v u))
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
  let g = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  let s = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block g in
  let replay = Schedule.analyze ~config (Schedule.Facts.make ~deps:[] block) s.Schedule.items in
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
  Alcotest.(check bool) "reversed order invalid" false (Schedule.is_valid ~dep_pairs:(Block.dep_pairs block) block bogus)

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
    let g = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
    let s = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block g in
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
  let g = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  let s = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block g in
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
let tie_block () =
  let e a k = Operand.Elem (a, [ Affine.const k ]) in
  let s id a k =
    Stmt.make ~id ~lhs:(e a k) ~rhs:(Expr.Bin (Types.Add, Expr.Leaf (e "B" k), Expr.Leaf (e "C" k)))
  in
  Block.make ~label:"tie" [ s 1 "A" 0; s 2 "A" 1; s 3 "A" 8; s 4 "A" 9 ]

let tie_grouping groups =
  { Grouping.groups; singles = []; rounds = 1; decisions = List.length groups }

let test_schedule_tie_break_program_order () =
  let block = tie_block () in
  let s = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block (tie_grouping [ [ 1; 2 ]; [ 3; 4 ] ]) in
  Alcotest.(check (list int)) "program order on ties" [ 1; 2; 3; 4 ]
    (Schedule.scheduled_stmt_ids s)

let test_schedule_group_order_independent () =
  let block = tie_block () in
  let a = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block (tie_grouping [ [ 1; 2 ]; [ 3; 4 ] ]) in
  let b = Schedule.run ~dep_pairs:(Block.dep_pairs block) ~config block (tie_grouping [ [ 3; 4 ]; [ 1; 2 ] ]) in
  Alcotest.(check (list int)) "grouping order irrelevant"
    (Schedule.scheduled_stmt_ids a) (Schedule.scheduled_stmt_ids b)

let test_schedule_repeatable () =
  (* Same inputs, same schedule — across options and repeated runs. *)
  let env = fig2_env () and block = fig2_block () in
  let g = Grouping.run ~dep_pairs:(Block.dep_pairs block) ~env ~config block in
  List.iter
    (fun options ->
      let a = Schedule.run ~options ~dep_pairs:(Block.dep_pairs block) ~config block g in
      let b = Schedule.run ~options ~dep_pairs:(Block.dep_pairs block) ~config block g in
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
          Alcotest.test_case "quotient weight vs node-level weight" `Quick
            test_quotient_weight;
          Seeded.to_alcotest quotient_weight_generated;
        ] );
      ( "units",
        [
          Alcotest.test_case "merge" `Quick test_units_merge;
          Alcotest.test_case "dependence safety" `Quick test_units_deps_acyclicity;
          Alcotest.test_case "array graph vs Hashtbl graph" `Quick
            test_merged_acyclic_vs_reference;
          Alcotest.test_case "incremental cycle check" `Quick test_incremental_cycle_check;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "iterative four-wide" `Quick test_iterative_grouping_four_wide;
          Alcotest.test_case "datapath bound" `Quick test_grouping_respects_datapath;
          Alcotest.test_case "dependence safety" `Quick test_grouping_dependence_safety;
          Alcotest.test_case "every option set pinned" `Slow test_groupings_pinned;
          Alcotest.test_case "memory linear in candidates" `Quick test_grouping_memory_linear;
          Alcotest.test_case "candidate search memory budget" `Quick
            test_candidate_memory_budget;
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
