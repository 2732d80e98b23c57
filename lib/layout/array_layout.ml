open Slp_ir
module E = Slp_util.Slp_error
module Visa = Slp_vm.Visa
module Sched = Slp_core.Schedule
module Driver = Slp_core.Driver
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark

type replica = {
  source : string;
  name : string;
  lanes : int;
  stride : int;
  lane_offsets : int list;
  loop_index : string;
  lo : int;
  hi : int;
  step : int;
  coeff : int;
  size : int;  (** Elements of the innermost (strided) dimension. *)
  outer_dim : int option;
      (** For rank-2 sources: the size of the leading dimension, which
          the replica keeps; [None] for rank-1 sources. *)
  outer_sub : Affine.t option;
      (** The (lane-invariant) leading subscript of the rewritten
          references. *)
}

type result = {
  plan : Driver.program_plan;
  setup : Visa.item list;
  replicas : replica list;
}

let written_arrays (prog : Program.t) =
  let written = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (s : Stmt.t) ->
          match s.Stmt.lhs with
          | Operand.Elem (base, _) -> Hashtbl.replace written base ()
          | Operand.Scalar _ | Operand.Const _ -> ())
        b.Block.stmts)
    (Program.blocks prog);
  written

(* Split a reference's subscripts into (outer leading subscript, the
   strided innermost subscript): rank-1 arrays have no outer part;
   rank-2 arrays replicate per leading row when the leading subscript
   is lane-invariant and free of the innermost index. *)
let split_subscripts ~index = function
  | Operand.Elem (b, [ ix ]) -> Some (b, None, ix)
  | Operand.Elem (b, [ outer; ix ])
    when not (List.mem index (Affine.vars outer)) ->
      Some (b, Some outer, ix)
  | Operand.Elem _ | Operand.Scalar _ | Operand.Const _ -> None

(* A candidate pack: ordered lanes reading A[a·i + b_k] (rank 1) or
   A[f(outer)][a·i + b_k] (rank 2, lane-invariant leading subscript)
   of a read-only array within loop [l]. *)
let candidate ~env ~written (l : Program.loop) ordered =
  let lanes = List.length ordered in
  if lanes < 2 then None
  else begin
    let split = List.map (split_subscripts ~index:l.Program.index) ordered in
    if List.exists Option.is_none split then None
    else begin
      let split = List.map Option.get split in
      let base, outer0, _ = List.hd split in
      let same_shape =
        (not (Hashtbl.mem written base))
        && List.for_all
             (fun (b, outer, _) ->
               String.equal b base
               &&
               match (outer0, outer) with
               | None, None -> true
               | Some a, Some b -> Affine.equal a b
               | _, _ -> false)
             split
      in
      if not same_shape then None
      else begin
        let decompose (_, _, ix) =
          let vars = Affine.vars ix in
          if List.for_all (String.equal l.Program.index) vars then
            Some (Affine.coeff ix l.Program.index, Affine.const_part ix)
          else None
        in
        match List.map decompose split with
        | parts when List.for_all Option.is_some parts -> begin
            let parts = List.map Option.get parts in
            let a = fst (List.hd parts) in
            if a = 0 || not (List.for_all (fun (a', _) -> a' = a) parts) then None
            else begin
              let offsets = List.map snd parts in
              (* Already-contiguous ascending packs gain nothing. *)
              let contiguous =
                List.for_all2
                  (fun b k -> b = List.hd offsets + k)
                  offsets
                  (List.init lanes (fun k -> k))
              in
              if contiguous && abs a = 1 then None
              else begin
                let rank_matches =
                  match (Env.array_info env base, outer0) with
                  | Some info, None -> List.length info.Env.dims = 1
                  | Some info, Some _ -> List.length info.Env.dims = 2
                  | None, _ -> false
                in
                if not rank_matches then None
                else
                  match (Affine.to_const l.Program.lo, Affine.to_const l.Program.hi) with
                  | Some lo, Some hi when hi > lo && lanes mod l.Program.step = 0 ->
                      Some (base, a, offsets, lo, hi, outer0)
                  | _ -> None
              end
            end
          end
        | _ -> None
      end
    end
  end

let amortizes ~lanes ~repeat =
  (* Warm-cache per-iteration saving of a vector load over a gather,
     against a cold-miss copy (load+store per element, ~40 cycles of
     DRAM latency dominating). *)
  let gather_cost = lanes * 6 and vload_cost = 4 in
  let setup_cost = lanes * 40 in
  (repeat * (gather_cost - vload_cost)) > setup_cost

let outer_repeat_of_loops loop_stack =
  match loop_stack with
  | [] -> 1
  | _ :: outer ->
      List.fold_left
        (fun acc (l : Program.loop) ->
          acc * Option.value (Program.trip_count l) ~default:1)
        1 outer

let outer_repeat_of_block prog label =
  let result = ref 1 in
  let rec walk stack items =
    List.iter
      (function
        | Program.Stmts (b : Block.t) ->
            if String.equal b.Block.label label then result := outer_repeat_of_loops stack
        | Program.Loop l -> walk (l :: stack) l.Program.body)
      items
  in
  walk [] prog.Program.body;
  !result

let written_set prog =
  let tbl = written_arrays prog in
  fun base -> Hashtbl.mem tbl base

let replicable_pack ~env ~written ~innermost ordered =
  match innermost with
  | None -> false
  | Some index ->
      if List.length ordered < 2 then false
      else begin
        let split = List.map (split_subscripts ~index) ordered in
        if List.exists Option.is_none split then false
        else begin
          let split = List.map Option.get split in
          let base, outer0, _ = List.hd split in
          let rank_matches =
            match (Env.array_info env base, outer0) with
            | Some info, None -> List.length info.Env.dims = 1
            | Some info, Some _ -> List.length info.Env.dims = 2
            | None, _ -> false
          in
          (not (written base))
          && rank_matches
          && List.for_all
               (fun (b, outer, _) ->
                 String.equal b base
                 &&
                 match (outer0, outer) with
                 | None, None -> true
                 | Some a, Some b -> Affine.equal a b
                 | _, _ -> false)
               split
          &&
          let strides =
            List.map
              (fun (_, _, ix) ->
                if List.for_all (String.equal index) (Affine.vars ix) then
                  Some (Affine.coeff ix index)
                else None)
              split
          in
          List.for_all Option.is_some strides
          &&
          let strides = List.map Option.get strides in
          let a = List.hd strides in
          a <> 0 && List.for_all (fun a' -> a' = a) strides
        end
      end

let apply ?(obs = Obs.none) ?(max_replica_elems = 4 * 1024 * 1024)
    (plan : Driver.program_plan) =
  let remark id ~block ~stmts message =
    if Obs.remarks_on obs then
      Obs.remark obs (Remark.make ~id ~pass:"layout" ~block ~stmts message)
  in
  let prog = plan.Driver.program in
  let env = Env.copy prog.Program.env in
  let written = written_arrays prog in
  let replicas = ref [] in
  let replica_count = ref 0 in
  let by_signature = Hashtbl.create 8 in
  (* Rewrites: (block label, stmt id) -> (position -> operand). *)
  let rewrites = Hashtbl.create 32 in
  let add_rewrite block_label sid pos op =
    let key = (block_label, sid) in
    let m = Option.value (Hashtbl.find_opt rewrites key) ~default:[] in
    Hashtbl.replace rewrites key ((pos, op) :: m)
  in
  let plans = ref plan.Driver.plans in
  let pop_plan () =
    match !plans with
    | p :: rest ->
        plans := rest;
        p
    | [] -> E.fail ~pass:E.Layout E.Layout_failed "Array_layout.apply: plan list exhausted"
  in
  let replication_profitable ~lanes ~repeat = amortizes ~lanes ~repeat in
  (* Pass 1: find candidates and record rewrites. *)
  let rec scan loop_stack items =
    List.iter
      (function
        | Program.Stmts b -> begin
            let p = pop_plan () in
            match (p.Driver.schedule, loop_stack) with
            | Some sched, (l : Program.loop) :: _ ->
                List.iter
                  (function
                    | Sched.Single _ -> ()
                    | Sched.Superword order ->
                        let stmts = List.map (Block.find b) order in
                        let npos = Stmt.position_count (List.hd stmts) in
                        for pos = 1 to npos - 1 do
                          let ordered =
                            List.map (fun s -> List.nth (Stmt.positions s) pos) stmts
                          in
                          match candidate ~env ~written l ordered with
                          | None -> ()
                          | Some (base, a, offsets, lo, hi, outer_sub) ->
                              let lanes = List.length ordered in
                              let trip = ((hi - lo) + l.Program.step - 1) / l.Program.step in
                              let size = lanes * trip in
                              let outer_dim =
                                match outer_sub with
                                | None -> None
                                | Some _ ->
                                    Some
                                      (List.hd
                                         (Option.get (Env.array_info env base)).Env.dims)
                              in
                              let total =
                                size * Option.value outer_dim ~default:1
                              in
                              (* Loops whose index feeds the leading
                                 subscript select a different replica row
                                 each iteration, so they do not amortise
                                 the copy. *)
                              let repeat =
                                let outer_vars =
                                  match outer_sub with
                                  | Some o -> Affine.vars o
                                  | None -> []
                                in
                                match loop_stack with
                                | [] -> 1
                                | _ :: outer ->
                                    List.fold_left
                                      (fun acc (ol : Program.loop) ->
                                        if List.mem ol.Program.index outer_vars then acc
                                        else
                                          acc
                                          * Option.value (Program.trip_count ol)
                                              ~default:1)
                                      1 outer
                              in
                              if
                                not
                                  (total <= max_replica_elems
                                  && replication_profitable ~lanes ~repeat)
                              then
                                remark "LAYOUT-SKIP-SIZE" ~block:b.Block.label
                                  ~stmts:order
                                  (Printf.sprintf
                                     "replica of %s skipped: %d elements \
                                      against cap %d, repeat factor %d"
                                     base total max_replica_elems repeat)
                              else begin
                                let signature =
                                  ( base, a, offsets, lo, hi, l.Program.step,
                                    l.Program.index,
                                    Option.map Affine.to_string outer_sub )
                                in
                                let rep =
                                  match Hashtbl.find_opt by_signature signature with
                                  | Some rep -> rep
                                  | None ->
                                      let name =
                                        Printf.sprintf "%s__r%d" base !replica_count
                                      in
                                      incr replica_count;
                                      let info =
                                        Option.get (Env.array_info env base)
                                      in
                                      let dims =
                                        match outer_dim with
                                        | None -> [ size ]
                                        | Some d -> [ d; size ]
                                      in
                                      Env.declare_array env name info.Env.elem_ty dims;
                                      let rep =
                                        {
                                          source = base;
                                          name;
                                          lanes;
                                          stride = a;
                                          lane_offsets = offsets;
                                          loop_index = l.Program.index;
                                          lo;
                                          hi;
                                          step = l.Program.step;
                                          coeff = lanes / l.Program.step;
                                          size;
                                          outer_dim;
                                          outer_sub;
                                        }
                                      in
                                      Hashtbl.replace by_signature signature rep;
                                      replicas := rep :: !replicas;
                                      remark "LAYOUT-REPLICATE"
                                        ~block:b.Block.label ~stmts:order
                                        (Printf.sprintf
                                           "replicated %s as %s (%d lanes, \
                                            stride %d, %d elements)"
                                           base name lanes a size);
                                      rep
                                in
                                (* Rewrite lane k of member k. *)
                                List.iteri
                                  (fun k (s : Stmt.t) ->
                                    let ix =
                                      Affine.make
                                        [ (rep.loop_index, rep.coeff) ]
                                        (k - (rep.coeff * rep.lo))
                                    in
                                    let subs =
                                      match rep.outer_sub with
                                      | None -> [ ix ]
                                      | Some o -> [ o; ix ]
                                    in
                                    add_rewrite b.Block.label s.Stmt.id pos
                                      (Operand.Elem (rep.name, subs)))
                                  stmts
                              end
                        done)
                  sched.Sched.items
            | _, _ -> ()
          end
        | Program.Loop l -> scan (l :: loop_stack) l.Program.body)
      items
  in
  scan [] prog.Program.body;
  (* Pass 2: rebuild the program with rewritten operands. *)
  let rewrite_block (b : Block.t) =
    {
      b with
      Block.stmts =
        List.map
          (fun (s : Stmt.t) ->
            match Hashtbl.find_opt rewrites (b.Block.label, s.Stmt.id) with
            | None -> s
            | Some changes ->
                let leaves = Expr.leaves s.Stmt.rhs in
                let leaves' =
                  List.mapi
                    (fun leaf op ->
                      match List.assoc_opt (leaf + 1) changes with
                      | Some op' -> op'
                      | None -> op)
                    leaves
                in
                { s with Stmt.rhs = Expr.replace_leaves s.Stmt.rhs leaves' })
          b.Block.stmts;
    }
  in
  let rewritten =
    Program.map_blocks { prog with Program.env } ~f:rewrite_block
  in
  (* A rewritten block keeps its plan, pairs included: the rewrite
     renames array reads, which moves no dependence. *)
  let new_plans =
    List.map2
      (fun (p : Driver.block_plan) b -> { p with Driver.block = b })
      plan.Driver.plans (Program.blocks rewritten)
  in
  (* Setup: one replication loop (nest) per replica.  Rank-2 sources
     copy every leading row — a superset of the rows the kernel
     touches, which is safe because the source is read-only. *)
  let setup =
    List.rev_map
      (fun rep ->
        let row = "__row" in
        let wrap_outer inner =
          match rep.outer_dim with
          | None -> inner
          | Some d ->
              Visa.Loop
                {
                  Visa.index = row;
                  lo = Affine.const 0;
                  hi = Affine.const d;
                  step = 1;
                  body = [ inner ];
                }
        in
        let copies =
          List.mapi
            (fun k b_k ->
              let dst_ix =
                Affine.make [ (rep.loop_index, rep.coeff) ] (k - (rep.coeff * rep.lo))
              in
              let src_ix = Affine.make [ (rep.loop_index, rep.stride) ] b_k in
              let dst_subs, src_subs =
                match rep.outer_dim with
                | None -> ([ dst_ix ], [ src_ix ])
                | Some _ -> ([ Affine.var row; dst_ix ], [ Affine.var row; src_ix ])
              in
              Visa.Sstmt
                (Stmt.make ~id:(k + 1)
                   ~lhs:(Operand.Elem (rep.name, dst_subs))
                   ~rhs:(Expr.Leaf (Operand.Elem (rep.source, src_subs)))))
            rep.lane_offsets
        in
        wrap_outer
          (Visa.Loop
             {
               Visa.index = rep.loop_index;
               lo = Affine.const rep.lo;
               hi = Affine.const rep.hi;
               step = rep.step;
               body = [ Visa.Block copies ];
             }))
      !replicas
  in
  {
    plan = { Driver.program = rewritten; plans = new_plans };
    setup;
    replicas = List.rev !replicas;
  }
