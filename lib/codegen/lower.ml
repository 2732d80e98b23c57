open Slp_ir
module E = Slp_util.Slp_error
module M = Slp_machine.Machine
module Visa = Slp_vm.Visa
module Sched = Slp_core.Schedule
module Pack = Slp_core.Pack
module Driver = Slp_core.Driver
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark
module Profile = Slp_obs.Profile

(* -- register tracker ----------------------------------------------- *)

type tracker = {
  capacity : int;
  mutable regs : (Operand.t list * Visa.vreg) list;  (** MRU first. *)
}

let tracker_find_exact t ordered =
  List.find_map
    (fun (o, r) -> if List.equal Operand.equal o ordered then Some r else None)
    t.regs

let tracker_find_multiset t pack =
  List.find_opt (fun (o, _) -> Pack.equal (Pack.of_operands o) pack) t.regs

(* A live superword whose lanes contain the wanted multiset — a
   narrower vector can be produced from it with one permute. *)
let tracker_find_submultiset t pack =
  let contains ordered =
    let remaining = ref (Pack.operands (Pack.of_operands ordered)) in
    List.for_all
      (fun want ->
        let rec take acc = function
          | [] -> None
          | x :: rest ->
              if Operand.equal x want then Some (List.rev_append acc rest)
              else take (x :: acc) rest
        in
        match take [] !remaining with
        | Some rest ->
            remaining := rest;
            true
        | None -> false)
      (Pack.operands pack)
  in
  List.find_opt (fun (o, _) -> List.length o > Pack.size pack && contains o) t.regs

(* Two live superwords whose lanes jointly cover the wanted operands:
   realisable with one two-source shuffle. *)
let tracker_find_pair t ordered =
  let try_pair (o1, r1) (o2, r2) =
    let used1 = Array.make (List.length o1) false in
    let used2 = Array.make (List.length o2) false in
    let a1 = Array.of_list o1 and a2 = Array.of_list o2 in
    let pick want =
      let rec find src arr used j =
        if j >= Array.length arr then None
        else if (not used.(j)) && Operand.equal arr.(j) want then begin
          used.(j) <- true;
          Some (src, j)
        end
        else find src arr used (j + 1)
      in
      match find 0 a1 used1 0 with Some hit -> Some hit | None -> find 1 a2 used2 0
    in
    let sel = List.map pick ordered in
    if List.for_all Option.is_some sel then
      Some (r1, r2, Array.of_list (List.map Option.get sel))
    else None
  in
  let rec scan = function
    | [] -> None
    | entry :: rest ->
        let hit =
          List.find_map
            (fun other ->
              match try_pair entry other with
              | Some r -> Some r
              | None -> try_pair other entry)
            rest
        in
        (match hit with Some r -> Some r | None -> scan rest)
  in
  scan t.regs

let tracker_insert t ordered vreg =
  let pack = Pack.of_operands ordered in
  t.regs <-
    (ordered, vreg)
    :: List.filter (fun (o, _) -> not (Pack.equal (Pack.of_operands o) pack)) t.regs;
  if List.length t.regs > t.capacity then
    t.regs <- List.filteri (fun i _ -> i < t.capacity) t.regs

let tracker_invalidate t defs =
  t.regs <-
    List.filter
      (fun (o, _) ->
        not (List.exists (fun d -> List.exists (Operand.may_alias d) o) defs))
      t.regs

(* -- block lowering -------------------------------------------------- *)

type ctx = {
  env : Env.t;
  machine : M.t;
  scalar_offset : string -> int option;
  live_out : string -> bool;
  reuse_enabled : bool;
      (** When false, no superword is ever served from a register —
          isolates the value of register-resident reuse. *)
  track : tracker;
  mutable next_vreg : int;
  mutable code : Visa.instr list;  (** Reversed. *)
  mutable okeys : Profile.key list;
      (** Profiling origin of each emitted instruction, parallel to
          [code] (reversed with it). *)
  mutable cur_key : Profile.key;
      (** Origin stamped on emissions: the statement or pack being
          lowered. *)
  block_label : string;
  rbuf : Remark.t list ref;
      (** Remarks buffered per lowering attempt; only the final
          attempt's buffer survives the forced-unpack fixpoint (earlier
          attempts' code is discarded, their remarks must be too). *)
  remarks_wanted : bool;
  stale : (string, unit) Hashtbl.t;
      (** Scalars defined earlier in this block by a superword that did
          not materialise them — their scalar registers are invalid. *)
  forced : (string, unit) Hashtbl.t;
      (** Scalars that must be unpacked because some later gather reads
          them from the scalar register file (fixpoint input). *)
  mutable needs_retry : bool;
}

let fresh ctx =
  let r = ctx.next_vreg in
  ctx.next_vreg <- r + 1;
  r

let emit ctx i =
  ctx.code <- i :: ctx.code;
  ctx.okeys <- ctx.cur_key :: ctx.okeys

let remark ctx id ~stmts message =
  if ctx.remarks_wanted then
    ctx.rbuf :=
      Remark.make ~id ~pass:"lowering" ~block:ctx.block_label ~stmts message
      :: !(ctx.rbuf)

let stmts_of_key = function
  | Profile.Pack ids -> ids
  | Profile.Stmt id -> [ id ]
  | Profile.Setup | Profile.Op _ -> []

let all_const ops =
  List.for_all (function Operand.Const _ -> true | _ -> false) ops

let all_equal ops =
  match ops with [] -> false | first :: rest -> List.for_all (Operand.equal first) rest

let contiguous_elems ctx ops =
  match ops with
  | Operand.Elem _ :: _ -> Slp_analysis.Alignment.contiguous_pack ~env:ctx.env ops
  | _ -> false

(* Memory-sorted version of an all-Elem pack when addresses are
   pairwise constant-comparable; returns the sorted operand list. *)
let mem_sorted ops =
  match ops with
  | Operand.Elem (base0, ix0) :: rest
    when List.for_all
           (function
             | Operand.Elem (b, ix) ->
                 String.equal b base0 && List.length ix = List.length ix0
             | Operand.Const _ | Operand.Scalar _ -> false)
           rest -> begin
      let key op =
        match op with
        | Operand.Elem (_, ix) -> List.map2 (fun a b -> Affine.diff_const a b) ix ix0
        | _ -> assert false
      in
      let keys = List.map key ops in
      if List.exists (List.exists Option.is_none) keys then None
      else
        Some
          (List.stable_sort
             (fun a b -> compare (key a) (key b))
             ops)
    end
  | _ -> None

let scalar_names ops =
  List.map
    (function Operand.Scalar v -> v | Operand.Const _ | Operand.Elem _ -> assert false)
    ops

let scalars_contiguous ctx names =
  let lanes = List.length names in
  match List.map ctx.scalar_offset names with
  | offs when List.for_all Option.is_some offs -> begin
      let offs = List.map Option.get offs in
      match offs with
      | first :: _ ->
          first mod (8 * lanes) = 0
          && List.for_all2 (fun o k -> o = first + (8 * k)) offs
               (List.init lanes (fun k -> k))
      | [] -> false
    end
  | _ -> false

(* Permutation selector producing [target] from [source] (same
   multiset). *)
let selector ~source ~target =
  let used = Array.make (List.length source) false in
  let src = Array.of_list source in
  Array.of_list
    (List.map
       (fun want ->
         let rec find j =
           if j >= Array.length src then
             E.fail ~pass:E.Lowering E.Lowering_failed
               "Lower.selector: multiset mismatch"
           else if (not used.(j)) && Operand.equal src.(j) want then begin
             used.(j) <- true;
             j
           end
           else find (j + 1)
         in
         find 0)
       target)

let lane_src_of ctx = function
  | Operand.Const f -> Visa.Imm f
  | Operand.Scalar v ->
      if Hashtbl.mem ctx.stale v then begin
        (* The register does not hold the value: force the defining
           superword to unpack it and re-lower the block. *)
        Hashtbl.replace ctx.forced v ();
        ctx.needs_retry <- true
      end;
      Visa.Reg v
  | Operand.Elem _ as e -> Visa.Mem e

(* Bring an ordered source pack into a vector register. *)
let materialize ctx ordered =
  let pack = Pack.of_operands ordered in
  match if ctx.reuse_enabled then tracker_find_exact ctx.track ordered else None with
  | Some r -> r
  | None -> begin
      match
        (if not ctx.reuse_enabled then None
         else
           match tracker_find_multiset ctx.track pack with
           | Some hit -> Some hit
           | None -> tracker_find_submultiset ctx.track pack)
      with
      | Some (live_ordered, live_reg) ->
          let dst = fresh ctx in
          emit ctx
            (Visa.Vpermute
               { dst; src = live_reg; sel = selector ~source:live_ordered ~target:ordered });
          tracker_insert ctx.track ordered dst;
          dst
      | None ->
      match if ctx.reuse_enabled then tracker_find_pair ctx.track ordered else None with
      | Some (r1, r2, sel) ->
          let dst = fresh ctx in
          emit ctx (Visa.Vshuffle2 { dst; a = r1; b = r2; sel });
          tracker_insert ctx.track ordered dst;
          dst
      | None ->
          let dst = fresh ctx in
          let lanes = List.length ordered in
          (if all_const ordered then
             if all_equal ordered then
               emit ctx
                 (Visa.Vbroadcast { dst; src = lane_src_of ctx (List.hd ordered); lanes })
             else emit ctx (Visa.Vgather { dst; srcs = List.map (lane_src_of ctx) ordered })
           else if all_equal ordered then
             emit ctx (Visa.Vbroadcast { dst; src = lane_src_of ctx (List.hd ordered); lanes })
           else if contiguous_elems ctx ordered then
             emit ctx (Visa.Vload { dst; elems = ordered })
           else begin
             match mem_sorted ordered with
             | Some sorted when contiguous_elems ctx sorted ->
                 let tmp = fresh ctx in
                 emit ctx (Visa.Vload { dst = tmp; elems = sorted });
                 tracker_insert ctx.track sorted tmp;
                 emit ctx
                   (Visa.Vpermute
                      { dst; src = tmp; sel = selector ~source:sorted ~target:ordered })
             | Some _ | None ->
                 let all_scalar =
                   List.for_all
                     (function Operand.Scalar _ -> true | _ -> false)
                     ordered
                 in
                 if all_scalar && scalars_contiguous ctx (scalar_names ordered) then begin
                   (* The slots are only valid if every scalar was
                      materialised by its defining superword. *)
                   List.iter
                     (fun v ->
                       if Hashtbl.mem ctx.stale v then begin
                         Hashtbl.replace ctx.forced v ();
                         ctx.needs_retry <- true
                       end)
                     (scalar_names ordered);
                   emit ctx (Visa.Vload_scalars { dst; sources = scalar_names ordered })
                 end
                 else begin
                   (if
                      List.exists
                        (function Operand.Elem _ -> true | _ -> false)
                        ordered
                    then
                      remark ctx "PACK-DROP-ALIGN"
                        ~stmts:(stmts_of_key ctx.cur_key)
                        (Printf.sprintf
                           "no aligned contiguous load for source pack %s; \
                            gathering element-wise"
                           (String.concat ","
                              (List.map Operand.to_string ordered))));
                   emit ctx
                     (Visa.Vgather { dst; srcs = List.map (lane_src_of ctx) ordered })
                 end
           end);
          tracker_insert ctx.track ordered dst;
          dst
    end

(* Commit a destination pack held in [src]. *)
let commit ctx ~scalar_demanded ordered src =
  let mark_stale materialised =
    List.iter
      (function
        | Operand.Scalar v ->
            if materialised v then Hashtbl.remove ctx.stale v
            else Hashtbl.replace ctx.stale v ()
        | Operand.Const _ | Operand.Elem _ -> ())
      ordered
  in
  (if List.for_all (function Operand.Elem _ -> true | _ -> false) ordered then begin
     if contiguous_elems ctx ordered then emit ctx (Visa.Vstore { src; elems = ordered })
     else
       match mem_sorted ordered with
       | Some sorted when contiguous_elems ctx sorted ->
           let tmp = fresh ctx in
           emit ctx
             (Visa.Vpermute { dst = tmp; src; sel = selector ~source:ordered ~target:sorted });
           emit ctx (Visa.Vstore { src = tmp; elems = sorted })
       | Some _ | None ->
           remark ctx "PACK-SCATTER" ~stmts:(stmts_of_key ctx.cur_key)
             (Printf.sprintf
                "destination pack %s scatters over memory; unpacking \
                 element-wise"
                (String.concat "," (List.map Operand.to_string ordered)));
           emit ctx
             (Visa.Vunpack
                { src; dsts = List.map (fun op -> Some (Visa.To_mem op)) ordered })
   end
   else begin
     (* Scalar (or mixed) destination: materialise only demanded lanes. *)
     let demanded =
       List.map
         (fun op ->
           match op with
           | Operand.Elem _ -> Some (Visa.To_mem op)
           | Operand.Scalar v ->
               if scalar_demanded v then Some (Visa.To_reg v) else None
           | Operand.Const _ -> assert false)
         ordered
     in
     let all_scalar =
       List.for_all (function Operand.Scalar _ -> true | _ -> false) ordered
     in
     let demanded_count = List.length (List.filter Option.is_some demanded) in
     if
       all_scalar
       && demanded_count = List.length ordered
       && scalars_contiguous ctx (scalar_names ordered)
     then begin
       emit ctx (Visa.Vstore_scalars { src; targets = scalar_names ordered });
       mark_stale (fun _ -> true)
     end
     else begin
       if demanded_count > 0 then emit ctx (Visa.Vunpack { src; dsts = demanded });
       mark_stale scalar_demanded
     end
   end);
  tracker_invalidate ctx.track ordered;
  tracker_insert ctx.track ordered src

let lower_block ctx (block : Block.t) (sched : Sched.t) =
  let items = Array.of_list sched.Sched.items in
  (* For each item index, the scalars read by later Singles. *)
  let later_single_reads = Array.make (Array.length items + 1) [] in
  for idx = Array.length items - 1 downto 0 do
    let extra =
      match items.(idx) with
      | Sched.Single sid ->
          List.filter_map
            (function Operand.Scalar v -> Some v | _ -> None)
            (Stmt.uses (Block.find block sid))
      | Sched.Superword _ -> []
    in
    later_single_reads.(idx) <- extra @ later_single_reads.(idx + 1)
  done;
  Array.iteri
    (fun idx item ->
      match item with
      | Sched.Single sid ->
          let s = Block.find block sid in
          ctx.cur_key <- Profile.Stmt sid;
          emit ctx (Visa.Sstmt s);
          (match Stmt.def s with
          | Operand.Scalar v -> Hashtbl.remove ctx.stale v
          | Operand.Const _ | Operand.Elem _ -> ());
          tracker_invalidate ctx.track [ Stmt.def s ]
      | Sched.Superword order ->
          ctx.cur_key <- Profile.Pack order;
          let stmts = List.map (Block.find block) order in
          let first = List.hd stmts in
          let npos = Stmt.position_count first in
          (* Materialise each source position. *)
          let leaf_regs =
            List.init (npos - 1) (fun leaf ->
                let pos = leaf + 1 in
                let ordered = List.map (fun s -> List.nth (Stmt.positions s) pos) stmts in
                materialize ctx ordered)
          in
          (* Evaluate the operator tree over leaf registers. *)
          let cursor = ref leaf_regs in
          let next_leaf () =
            match !cursor with
            | r :: rest ->
                cursor := rest;
                r
            | [] -> assert false
          in
          let rec tree (e : Expr.t) =
            match e with
            | Expr.Leaf _ -> next_leaf ()
            | Expr.Un (op, inner) ->
                let a = tree inner in
                let dst = fresh ctx in
                emit ctx (Visa.Vun { dst; op; a });
                dst
            | Expr.Bin (op, l, r) ->
                let a = tree l in
                let b = tree r in
                let dst = fresh ctx in
                emit ctx (Visa.Vbin { dst; op; a; b });
                dst
          in
          let result = tree first.Stmt.rhs in
          let defs = List.map Stmt.def stmts in
          let scalar_demanded v =
            ctx.live_out v
            || List.mem v later_single_reads.(idx + 1)
            || Hashtbl.mem ctx.forced v
          in
          commit ctx ~scalar_demanded defs result)
    items;
  let code = List.rev ctx.code in
  let okeys = Array.of_list (List.rev ctx.okeys) in
  ctx.code <- [];
  ctx.okeys <- [];
  (code, okeys)

(* -- program lowering ------------------------------------------------ *)

let lower_with_origins ?(obs = Obs.none) ~machine ?(reuse = true)
    ?(scalar_offsets = []) ?(setup = []) (plan : Driver.program_plan) =
  let prog = plan.Driver.program in
  let env = prog.Program.env in
  let liveness = Slp_analysis.Liveness.compute prog in
  let per_block_live_out b v = Slp_analysis.Liveness.demanded liveness b v in
  let offsets = Hashtbl.create 16 in
  List.iter (fun (v, o) -> Hashtbl.replace offsets v o) scalar_offsets;
  let plans = ref plan.Driver.plans in
  let pop_plan (b : Block.t) =
    match !plans with
    | p :: rest when p.Driver.block == b || p.Driver.block.Block.label = b.Block.label ->
        plans := rest;
        p
    | _ ->
        E.fail ~pass:E.Lowering E.Lowering_failed
          "Lower.lower_with_origins: plan list out of sync with program"
  in
  (* One origin array per emitted [Visa.Block], in pre-order — the
     order the engine pops them back off. *)
  let origins = ref [] in
  let push_origins arr = origins := arr :: !origins in
  let rec walk items =
    List.map
      (function
        | Program.Stmts b -> begin
            let p = pop_plan b in
            match p.Driver.schedule with
            | None ->
                push_origins
                  (Array.of_list
                     (List.map
                        (fun (s : Stmt.t) -> Profile.Stmt s.Stmt.id)
                        b.Block.stmts));
                Visa.Block
                  (List.map (fun s -> Visa.Sstmt s) b.Block.stmts)
            | Some sched ->
                (* Fixpoint over forced unpacks: a lowering attempt that
                   reads a stale scalar register schedules that scalar
                   for unpacking and retries (converges because the
                   forced set only grows). *)
                let forced = Hashtbl.create 4 in
                let rec attempt n =
                  let ctx =
                    {
                      env;
                      machine;
                      scalar_offset = Hashtbl.find_opt offsets;
                      live_out = per_block_live_out b;
                      reuse_enabled = reuse;
                      track = { capacity = machine.M.vector_registers; regs = [] };
                      next_vreg = 0;
                      code = [];
                      okeys = [];
                      cur_key = Profile.Op "?";
                      block_label = b.Block.label;
                      rbuf = ref [];
                      remarks_wanted = Obs.remarks_on obs;
                      stale = Hashtbl.create 8;
                      forced;
                      needs_retry = false;
                    }
                  in
                  let code, okeys = lower_block ctx b sched in
                  if ctx.needs_retry && n < 8 then attempt (n + 1)
                  else begin
                    (* Only the surviving attempt's remarks are real. *)
                    List.iter (Obs.remark obs) (List.rev !(ctx.rbuf));
                    push_origins okeys;
                    code
                  end
                in
                Visa.Block (attempt 0)
          end
        | Program.Loop l ->
            Visa.Loop
              {
                Visa.index = l.Program.index;
                lo = l.Program.lo;
                hi = l.Program.hi;
                step = l.Program.step;
                body = walk l.Program.body;
              })
      items
  in
  let body = walk prog.Program.body in
  ({ Visa.name = prog.Program.name; env; setup; body }, List.rev !origins)
