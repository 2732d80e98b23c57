open Slp_ir
module D = Diagnostic
module Depend = Slp_depend.Depend

let r_li_order = "DEP01-li-order"
let r_distance = "DEP02-distance"
let r_reduction = "DEP03-reduction"
let r_parallel = "DEP04-parallel"
let r_reason = "DEP05-reason"

let where_of_edge (e : Depend.edge) =
  Printf.sprintf "S%d -> S%d (%s, %s%s)" e.Depend.src e.Depend.dst
    e.Depend.array
    (Depend.kind_string e.Depend.ekind)
    (match e.Depend.carrier with
    | None -> ""
    | Some c -> ", carried on " ^ c)

(* Per-block statement positions — statement ids are only unique
   within a block (unrolled replicas reuse ids), so DEP01 checks
   ordering inside each block rather than against one global table. *)
let block_positions (prog : Program.t) =
  List.map
    (fun (b : Block.t) ->
      let tbl = Hashtbl.create 16 in
      List.iteri
        (fun i (s : Stmt.t) -> Hashtbl.replace tbl s.Stmt.id i)
        b.Block.stmts;
      tbl)
    (Program.blocks prog)

(* Largest constant trip count per loop index name.  Unrolling can
   leave several loops sharing a name (main + remainder); a carried
   edge can only originate from one with trip >= 2, so bounding the
   distance by the maximum stays sound. *)
let trips (prog : Program.t) =
  let tbl = Hashtbl.create 8 in
  let symbolic = Hashtbl.create 4 in
  let rec go items =
    List.iter
      (function
        | Program.Stmts _ -> ()
        | Program.Loop l ->
            (match
               Depend.Box.trip
                 (Depend.Box.of_bounds ~lo:l.Program.lo ~hi:l.Program.hi
                    ~step:l.Program.step)
             with
            | Some t ->
                let prev =
                  Option.value ~default:0 (Hashtbl.find_opt tbl l.Program.index)
                in
                Hashtbl.replace tbl l.Program.index (max prev t)
            | None -> Hashtbl.replace symbolic l.Program.index ());
            go l.Program.body)
      items
  in
  go prog.Program.body;
  Hashtbl.iter (fun name () -> Hashtbl.remove tbl name) symbolic;
  tbl

(* A reduction update statement must read its own scalar exactly as
   [s = s ⊕ e] (or the mirrored form) with the reported operator. *)
let is_reduction_update ~scalar ~op (s : Stmt.t) =
  (match s.Stmt.lhs with
  | Operand.Scalar v -> String.equal v scalar
  | _ -> false)
  &&
  match s.Stmt.rhs with
  | Expr.Bin (o, l, r) when o = op ->
      let is_self = function
        | Expr.Leaf (Operand.Scalar v) -> String.equal v scalar
        | _ -> false
      in
      is_self l || is_self r
  | _ -> false

let known_reasons = [ "symbolic-bounds"; "banerjee-inconclusive" ]

let check_graph ?(stage = D.Prepared_ir) ~verdict (prog : Program.t)
    (graph : Depend.graph) =
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let block_pos = block_positions prog in
  (* A loop-independent edge is in order when some block lists its
     source strictly before its destination. *)
  let li_forward src dst =
    List.exists
      (fun tbl ->
        match (Hashtbl.find_opt tbl src, Hashtbl.find_opt tbl dst) with
        | Some ps, Some pd -> ps < pd
        | _ -> false)
      block_pos
  in
  let li_known src dst =
    List.exists
      (fun tbl -> Hashtbl.mem tbl src && Hashtbl.mem tbl dst)
      block_pos
  in
  let trip_tbl = trips prog in
  List.iter
    (fun (e : Depend.edge) ->
      (* The edge's text is built only when a rule reports it. *)
      let error ~rule fmt = D.error ~rule ~stage ~where:(where_of_edge e) fmt in
      (match e.Depend.carrier with
      | None ->
          (* DEP01: loop-independent edges run forward in program
             order (self edges are carried by construction). *)
          if not (li_known e.Depend.src e.Depend.dst) then
            report
              (error ~rule:r_li_order
                 "edge references statements that share no block")
          else if not (li_forward e.Depend.src e.Depend.dst) then
            report
              (error ~rule:r_li_order
                 "loop-independent edge does not run forward in program order")
      | Some carrier -> begin
          (* DEP02: a carried edge crosses at least one carrier
             iteration and no more than trip - 1; its direction vector
             pins outer loops equal and the carrier to [<]. *)
          (match e.Depend.distance with
          | Some d ->
              if d < 1 then
                report
                  (error ~rule:r_distance
                     "carried edge has non-positive distance %d" d);
              (match Hashtbl.find_opt trip_tbl carrier with
              | Some trip when d > trip - 1 ->
                  report
                    (error ~rule:r_distance
                       "distance %d exceeds the carrier's trip count %d - 1" d
                       trip)
              | _ -> ())
          | None -> ());
          match List.assoc_opt carrier e.Depend.directions with
          | Some Depend.Lt ->
              let rec outer_eq = function
                | [] -> ()
                | (v, dir) :: rest ->
                    if String.equal v carrier then ()
                    else begin
                      if dir <> Depend.Eq then
                        report
                          (error ~rule:r_distance
                             "loop %s outside the carrier is not pinned [=]" v);
                      outer_eq rest
                    end
              in
              outer_eq e.Depend.directions
          | Some _ ->
              report
                (error ~rule:r_distance
                   "carrier %s direction is not [<]" carrier)
          | None ->
              report
                (error ~rule:r_distance
                   "direction vector does not mention carrier %s" carrier)
        end);
      (* DEP05: conservative edges carry a catalogued reason; exact
         edges carry none. *)
      if e.Depend.exact then begin
        if e.Depend.reason <> None then
          report
            (error ~rule:r_reason
               "exact edge carries a conservativeness reason")
      end
      else
        match e.Depend.reason with
        | Some r when List.mem r known_reasons -> ()
        | Some r ->
            report
              (error ~rule:r_reason
                 "inexact edge has uncatalogued reason %S" r)
        | None ->
            report
              (error ~rule:r_reason
                 "inexact edge has no reason code"))
    graph.Depend.edges;
  (* DEP03: every reported reduction is an associative self-update of
     its scalar at each listed statement. *)
  let stmt_tbl = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (s : Stmt.t) -> Hashtbl.replace stmt_tbl s.Stmt.id s)
        b.Block.stmts)
    (Program.blocks prog);
  List.iter
    (fun (scalar, op, ids) ->
      let where = Printf.sprintf "%s (%s)" scalar (Depend.op_string op) in
      if not (Depend.associative op) then
        report
          (D.error ~rule:r_reduction ~stage ~where
             "reduction reported with non-associative operator");
      if ids = [] then
        report
          (D.error ~rule:r_reduction ~stage ~where
             "reduction has no update statements");
      List.iter
        (fun id ->
          match Hashtbl.find_opt stmt_tbl id with
          | None ->
              report
                (D.error ~rule:r_reduction ~stage ~where
                   "update statement S%d is missing from the program" id)
          | Some s ->
              if not (is_reduction_update ~scalar ~op s) then
                report
                  (D.error ~rule:r_reduction ~stage ~where
                     "S%d is not a %s self-update of %s" id
                     (Depend.op_string op) scalar))
        ids)
    graph.Depend.reductions;
  (* DEP04: a Parallel verdict promises chunks of the outermost loop
     are independent — the graph must agree (no array edge carried on
     the partition variable).  The verdict is the one the engine acts
     on: the analysis of the program's Visa image. *)
  (match (verdict, prog.Program.body) with
  | Depend.Parallel _, [ Program.Loop l ] ->
      List.iter
        (fun (e : Depend.edge) ->
          if e.Depend.carrier = Some l.Program.index then
            report
              (D.error ~rule:r_parallel ~stage ~where:(where_of_edge e)
                 "Parallel verdict but an edge is carried on the partition \
                  loop %s"
                 l.Program.index))
        graph.Depend.edges
  | _ -> ());
  List.rev !diags

let check ?stage (prog : Program.t) =
  check_graph ?stage
    ~verdict:(Slp_vm.Parcheck.analyze (Slp_vm.Visa.of_program prog))
    prog (Depend.of_program prog)
