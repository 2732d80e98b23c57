open Slp_ir
module Visa = Slp_vm.Visa
module Sched = Slp_core.Schedule
module Driver = Slp_core.Driver
module Cost = Slp_core.Cost
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

type decision =
  | Keep
  | Skip of { source : string; elems : int; repeat : int }
  | Replicate of replica

let max_replica_elems = 4 * 1024 * 1024

let amortizes ~lanes ~repeat =
  (* Warm-cache per-iteration saving of a vector load over a gather,
     against a cold-miss copy (load+store per element, ~40 cycles of
     DRAM latency dominating). *)
  let gather_cost = lanes * 6 and vload_cost = 4 in
  let setup_cost = lanes * 40 in
  (repeat * (gather_cost - vload_cost)) > setup_cost

(* One lane of a candidate pack in the loop over [index]: the array,
   its leading subscript (rank 2 only, and free of [index]), and the
   stride [a] and offset [b] of an innermost subscript [a·index + b]. *)
let lane ~index op =
  let strided base row ix =
    if List.for_all (String.equal index) (Affine.vars ix) then
      Some (base, row, Affine.coeff ix index, Affine.const_part ix)
    else None
  in
  match op with
  | Operand.Elem (base, [ ix ]) -> strided base None ix
  | Operand.Elem (base, [ row; ix ]) when not (List.mem index (Affine.vars row)) ->
      strided base (Some row) ix
  | Operand.Elem _ | Operand.Scalar _ | Operand.Const _ -> None

let decide ~env ~written ~loops ordered =
  let lanes = List.length ordered in
  match loops with
  | [] -> Keep
  | (l : Program.loop) :: outer -> begin
      let index = l.Program.index and step = l.Program.step in
      let parts = List.filter_map (lane ~index) ordered in
      match (parts, Affine.to_const l.Program.lo, Affine.to_const l.Program.hi) with
      | (base, row, a, b0) :: _, Some lo, Some hi
        when lanes >= 2
             && List.length parts = lanes
             && (not (written base))
             && a <> 0
             && List.for_all
                  (fun (base', row', a', _) ->
                    String.equal base' base && Option.equal Affine.equal row' row && a' = a)
                  parts
             && hi > lo
             && lanes mod step = 0 -> begin
          let offsets = List.map (fun (_, _, _, b) -> b) parts in
          (* Already-contiguous ascending packs gain nothing. *)
          let contiguous =
            abs a = 1 && List.for_all Fun.id (List.mapi (fun k b -> b = b0 + k) offsets)
          in
          (* [outer_dim]: a rank-2 source's leading dimension, which
             the replica keeps. *)
          let replicate_or_skip outer_dim =
            let size = lanes * (((hi - lo) + step - 1) / step) in
            let elems = size * Option.value outer_dim ~default:1 in
            (* Loops whose index feeds the leading subscript select a
               different replica row each iteration, so they do not
               amortise the copy. *)
            let row_vars = Option.fold ~none:[] ~some:Affine.vars row in
            let repeat =
              List.fold_left
                (fun acc (o : Program.loop) ->
                  if List.mem o.Program.index row_vars then acc
                  else acc * Option.value (Program.trip_count o) ~default:1)
                1 outer
            in
            if elems <= max_replica_elems && amortizes ~lanes ~repeat then
              Replicate
                {
                  source = base;
                  name = "";
                  lanes;
                  stride = a;
                  lane_offsets = offsets;
                  loop_index = index;
                  lo;
                  hi;
                  step;
                  coeff = lanes / step;
                  size;
                  outer_dim;
                  outer_sub = row;
                }
            else Skip { source = base; elems; repeat }
          in
          match (Env.array_info env base, row) with
          | _ when contiguous -> Keep
          | Some { Env.dims = [ _ ]; _ }, None -> replicate_or_skip None
          | Some { Env.dims = [ d; _ ]; _ }, Some _ -> replicate_or_skip (Some d)
          | _, _ -> Keep
        end
      | _ -> Keep
    end

(* What [decide] needs of a whole program: the arrays stored to
   anywhere in it, and each block's enclosing loops, innermost first,
   by block label (labels are unique) from one walk. *)
let program_facts (prog : Program.t) =
  let written = Hashtbl.create 16 and loops = Hashtbl.create 16 in
  let rec walk stack items =
    List.iter
      (function
        | Program.Stmts (b : Block.t) ->
            Hashtbl.replace loops b.Block.label stack;
            List.iter
              (fun (s : Stmt.t) ->
                match s.Stmt.lhs with
                | Operand.Elem (base, _) -> Hashtbl.replace written base ()
                | Operand.Scalar _ | Operand.Const _ -> ())
              b.Block.stmts
        | Program.Loop l -> walk (l :: stack) l.Program.body)
      items
  in
  walk [] prog.Program.body;
  ( Hashtbl.mem written,
    fun (b : Block.t) -> Option.value (Hashtbl.find_opt loops b.Block.label) ~default:[] )

let gate_query (prog : Program.t) base =
  let env = prog.Program.env in
  let written, loops_of = program_facts prog in
  fun (site : Driver.site) ->
    let q = base site in
    let loops = loops_of site.Driver.block in
    let replicates ops =
      match decide ~env ~written ~loops ops with
      | Replicate _ -> true
      | Keep | Skip _ -> false
    in
    {
      q with
      Cost.contiguous = (fun ops -> q.Cost.contiguous ops || replicates ops);
      aligned =
        (fun ops ->
          q.Cost.aligned ops || ((not (q.Cost.contiguous ops)) && replicates ops));
    }

let apply ?(obs = Obs.none) (plan : Driver.program_plan) =
  let remark id ~block ~stmts message =
    if Obs.remarks_on obs then
      Obs.remark obs (Remark.make ~id ~pass:"layout" ~block ~stmts message)
  in
  let prog = plan.Driver.program in
  let env = Env.copy prog.Program.env in
  let written, loops_of = program_facts prog in
  let replicas = ref [] in
  let by_signature = Hashtbl.create 8 in
  (* Rewrites: (block label, stmt id) -> (position -> operand). *)
  let rewrites = Hashtbl.create 32 in
  let add_rewrite block_label sid pos op =
    let key = (block_label, sid) in
    let m = Option.value (Hashtbl.find_opt rewrites key) ~default:[] in
    Hashtbl.replace rewrites key ((pos, op) :: m)
  in
  (* The replica [r] describes, created and numbered on first use. *)
  let replica_for ~block ~stmts (r : replica) =
    let signature =
      ( r.source, r.stride, r.lane_offsets, r.lo, r.hi, r.step, r.loop_index,
        Option.map Affine.to_string r.outer_sub )
    in
    match Hashtbl.find_opt by_signature signature with
    | Some rep -> rep
    | None ->
        let rep =
          { r with name = Printf.sprintf "%s__r%d" r.source (Hashtbl.length by_signature) }
        in
        let info = Option.get (Env.array_info env r.source) in
        let dims = match r.outer_dim with None -> [ r.size ] | Some d -> [ d; r.size ] in
        Env.declare_array env rep.name info.Env.elem_ty dims;
        Hashtbl.replace by_signature signature rep;
        replicas := rep :: !replicas;
        remark "LAYOUT-REPLICATE" ~block ~stmts
          (Printf.sprintf "replicated %s as %s (%d lanes, stride %d, %d elements)"
             r.source rep.name r.lanes r.stride r.size);
        rep
  in
  (* Pass 1: ask the rule about every source pack of every committed
     superword and record the rewrites. *)
  List.iter
    (fun (p : Driver.block_plan) ->
      let b = p.Driver.block in
      let block = b.Block.label and loops = loops_of b in
      let superword order =
        let stmts = List.map (Block.find b) order in
        for pos = 1 to Stmt.position_count (List.hd stmts) - 1 do
          let ordered = List.map (fun s -> List.nth (Stmt.positions s) pos) stmts in
          match decide ~env ~written ~loops ordered with
          | Keep -> ()
          | Skip { source; elems; repeat } ->
              remark "LAYOUT-SKIP-SIZE" ~block ~stmts:order
                (Printf.sprintf
                   "replica of %s skipped: %d elements against cap %d, repeat factor %d"
                   source elems max_replica_elems repeat)
          | Replicate r ->
              let rep = replica_for ~block ~stmts:order r in
              (* Rewrite lane k of member k. *)
              List.iteri
                (fun k (s : Stmt.t) ->
                  let ix =
                    Affine.make [ (rep.loop_index, rep.coeff) ] (k - (rep.coeff * rep.lo))
                  in
                  let subs = match rep.outer_sub with None -> [ ix ] | Some o -> [ o; ix ] in
                  add_rewrite block s.Stmt.id pos (Operand.Elem (rep.name, subs)))
                stmts
        done
      in
      Option.iter
        (fun sched ->
          List.iter
            (function Sched.Single _ -> () | Sched.Superword order -> superword order)
            sched.Sched.items)
        p.Driver.schedule)
    plan.Driver.plans;
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
