open Slp_ir

type params = {
  scalar_op : float;
  vector_op : float;
  divide : float;
  square_root : float;
  scalar_load : float;
  scalar_store : float;
  vector_load : float;
  vector_store : float;
  unaligned_extra : float;
  insert : float;
  extract : float;
  permute : float;
  broadcast : float;
}

let default_params =
  {
    scalar_op = 1.0;
    vector_op = 1.0;
    divide = 16.0;
    square_root = 22.0;
    scalar_load = 2.0;
    scalar_store = 2.0;
    vector_load = 2.0;
    vector_store = 2.0;
    unaligned_extra = 1.0;
    insert = 1.0;
    extract = 1.0;
    permute = 1.0;
    broadcast = 1.0;
  }

type query = {
  contiguous : Operand.t list -> bool;
  aligned : Operand.t list -> bool;
  scalar_live_out : string -> bool;
}

let default_query ~env ~nest ~lanes =
  {
    contiguous =
      (fun ops ->
        match ops with
        | Operand.Elem _ :: _ -> Slp_analysis.Alignment.contiguous_pack ~env ops
        | _ -> false);
    aligned =
      (fun ops ->
        match ops with
        | (Operand.Elem _ as first) :: _ -> begin
            match Slp_analysis.Alignment.of_operand ~env ~nest ~lanes first with
            | Some Slp_analysis.Alignment.Aligned -> true
            | Some (Slp_analysis.Alignment.Misaligned _ | Slp_analysis.Alignment.Unknown)
            | None ->
                false
          end
        | _ -> false);
    scalar_live_out = (fun _ -> true);
  }

type estimate = {
  scalar_cost : float;
  vector_cost : float;
  vector_ops : int;
  vector_memops : int;
  scalar_memops_in_packs : int;
  inserts : int;
  extracts : int;
  permutes : int;
}

let weighted_ops params ~base rhs =
  List.fold_left
    (fun acc op ->
      acc
      +.
      match op with
      | Either.Left Types.Div -> params.divide
      | Either.Right Types.Sqrt -> params.square_root
      | Either.Left _ | Either.Right _ -> base)
    0.0 (Expr.operators rhs)

let scalar_stmt_cost params (s : Stmt.t) =
  let ops = weighted_ops params ~base:params.scalar_op s.Stmt.rhs in
  let loads =
    float_of_int
      (List.length (List.filter (function Operand.Elem _ -> true | _ -> false) (Stmt.uses s)))
    *. params.scalar_load
  in
  let store =
    match s.Stmt.lhs with
    | Operand.Elem _ -> params.scalar_store
    | Operand.Scalar _ | Operand.Const _ -> 0.0
  in
  ops +. loads +. store

(* What pricing keeps about one block between estimates, for the query
   and params it was made under: the per-statement costs (a statement's
   vector operator cost once a superword it heads is priced, NaN
   before), the answers of [scalar_live_out] by operand id (0 = not
   asked yet, 1 = no, 2 = yes), and per ordered pack (its lane ids) the
   answers of [contiguous] and [aligned] for the pack and for its
   reverse, two bits each in that order.  [last_read] is per-estimate
   scratch. *)
type memo = {
  query : query;
  params : params;
  scalar_cost : float;
  stmt_cost : float array;  (** By rank. *)
  vector_op_cost : float array;  (** By rank. *)
  live_out : int array;
  verdicts : (int array, int) Hashtbl.t;
  last_read : int array;
      (** By operand id: the last item index of a Single reading it. *)
}

type Schedule.Facts.pricing += Memo of memo

let memo_of ~params ~query facts =
  let module F = Schedule.Facts in
  match F.pricing facts with
  | Some (Memo m) when m.query == query && m.params == params -> m
  | Some _ | None ->
      let stmt_cost =
        Array.init (F.rank_count facts) (fun r -> scalar_stmt_cost params (F.rank_stmt facts r))
      in
      let m =
        {
          query;
          params;
          (* Summed in block order, as [Stmt.t] lists are priced. *)
          scalar_cost =
            List.fold_left
              (fun acc (s : Stmt.t) -> acc +. stmt_cost.(F.rank facts s.Stmt.id))
              0.0 (F.block facts).Block.stmts;
          stmt_cost;
          vector_op_cost = Array.make (F.rank_count facts) Float.nan;
          live_out = Array.make (F.id_count facts) 0;
          verdicts = Hashtbl.create 16;
          last_read = Array.make (F.id_count facts) (-1);
        }
      in
      F.set_pricing facts (Memo m);
      m

(* Question [q] of an ordered pack: 0 = contiguous, 1 = aligned, 2 and
   3 the same of the reversed lanes. *)
let verdict facts m lanes q =
  let bits = match Hashtbl.find m.verdicts lanes with b -> b | exception Not_found -> 0 in
  match (bits lsr (2 * q)) land 3 with
  | 0 ->
      let ops = Array.fold_right (fun i acc -> Schedule.Facts.operand facts i :: acc) lanes [] in
      let ops = if q >= 2 then List.rev ops else ops in
      let yes = (if q land 1 = 0 then m.query.contiguous else m.query.aligned) ops in
      Hashtbl.replace m.verdicts lanes (bits lor ((if yes then 2 else 1) lsl (2 * q)));
      yes
  | answer -> answer = 2

let scalar_live_out facts m i =
  match m.live_out.(i) with
  | 0 ->
      let yes =
        match Schedule.Facts.operand facts i with
        | Operand.Scalar v -> m.query.scalar_live_out v
        | Operand.Const _ | Operand.Elem _ -> false
      in
      m.live_out.(i) <- (if yes then 2 else 1);
      yes
  | answer -> answer = 2

let estimate_facts ?(params = default_params) ~query facts (sched : Schedule.t) =
  let module F = Schedule.Facts in
  let m = memo_of ~params ~query facts in
  let first_scalar = F.first_scalar facts and first_elem = F.first_elem facts in
  (* Scalars read by later Single items, per item index: a superword
     defining such a scalar must unpack it. *)
  let items = Array.of_list sched.Schedule.items in
  let last_read = m.last_read in
  Array.fill last_read 0 (Array.length last_read) (-1);
  Array.iteri
    (fun idx item ->
      match item with
      | Schedule.Single sid ->
          let row = F.row facts (F.rank facts sid) in
          for pos = 1 to Array.length row - 1 do
            let i = row.(pos) in
            if i >= first_scalar && i < first_elem then last_read.(i) <- idx
          done
      | Schedule.Superword _ -> ())
    items;
  let live = Live.create ~capacity:64 in
  let vcost = ref 0.0 in
  let vector_ops = ref 0 in
  let vector_memops = ref 0 in
  let scalar_memops_in_packs = ref 0 in
  let inserts = ref 0 in
  let extracts = ref 0 in
  let permutes = ref 0 in
  let charge c = vcost := !vcost +. c in
  let contiguous lanes = verdict facts m lanes 0 and aligned lanes = verdict facts m lanes 1 in
  let contiguous_rev lanes = verdict facts m lanes 2
  and aligned_rev lanes = verdict facts m lanes 3 in
  (* A pack's kind from its multiset: ids order constants, scalars,
     then elements. *)
  let all_elem key = key.(0) >= first_elem in
  let all_scalar key = key.(0) >= first_scalar && key.(Array.length key - 1) < first_elem in
  let pack_source lanes key =
    let n = Array.length lanes in
    if Live.mem_exact live lanes then ()
    else if Live.mem_multiset live key then begin
      incr permutes;
      charge params.permute
    end
    else if Live.coverable_by_two live key then begin
      incr permutes;
      charge params.permute
    end
    else if key.(0) = key.(n - 1) then begin
      (* Splat: one broadcast, plus one element load when the value
         comes from memory. *)
      charge params.broadcast;
      if all_elem key then begin
        incr scalar_memops_in_packs;
        charge params.scalar_load
      end
    end
    else if all_elem key then
      if contiguous lanes then begin
        incr vector_memops;
        charge params.vector_load;
        if not (aligned lanes) then charge params.unaligned_extra
      end
      else if contiguous_rev lanes then begin
        incr vector_memops;
        incr permutes;
        charge (params.vector_load +. params.permute);
        if not (aligned_rev lanes) then charge params.unaligned_extra
      end
      else begin
        scalar_memops_in_packs := !scalar_memops_in_packs + n;
        inserts := !inserts + n;
        charge (float_of_int n *. (params.scalar_load +. params.insert))
      end
    else if all_scalar key then
      if contiguous lanes then begin
        incr vector_memops;
        charge params.vector_load;
        if not (aligned lanes) then charge params.unaligned_extra
      end
      else begin
        inserts := !inserts + n;
        charge (float_of_int n *. params.insert)
      end
    else
      for l = 0 to n - 1 do
        incr inserts;
        charge params.insert;
        if lanes.(l) >= first_elem then begin
          incr scalar_memops_in_packs;
          charge params.scalar_load
        end
      done
  in
  let pack_dest item_idx lanes key =
    let n = Array.length lanes in
    if all_elem key then
      if contiguous lanes then begin
        incr vector_memops;
        charge params.vector_store;
        if not (aligned lanes) then charge params.unaligned_extra
      end
      else if contiguous_rev lanes then begin
        incr vector_memops;
        incr permutes;
        charge (params.vector_store +. params.permute);
        if not (aligned_rev lanes) then charge params.unaligned_extra
      end
      else begin
        extracts := !extracts + n;
        scalar_memops_in_packs := !scalar_memops_in_packs + n;
        charge (float_of_int n *. (params.extract +. params.scalar_store))
      end
    else begin
      (* Scalars stay in the vector register unless some later Single
         (or the world outside the block) needs them as scalars. *)
      let needed = ref 0 in
      for l = 0 to n - 1 do
        let i = lanes.(l) in
        if
          i >= first_scalar && i < first_elem
          && (scalar_live_out facts m i || last_read.(i) > item_idx)
        then incr needed
      done;
      let needed = !needed in
      if needed > 0 then
        if needed = n && contiguous lanes then begin
          (* The scalar layout optimization placed them adjacently:
             one vector store materialises all of them. *)
          incr vector_memops;
          charge params.vector_store
        end
        else begin
          extracts := !extracts + needed;
          charge (float_of_int needed *. (params.extract +. params.scalar_store))
        end
    end
  in
  Array.iteri
    (fun idx item ->
      match item with
      | Schedule.Single sid ->
          let r = F.rank facts sid in
          charge m.stmt_cost.(r);
          Live.invalidate live (F.clobbers facts (F.row facts r).(0))
      | Schedule.Superword order ->
          let ranks = List.map (F.rank facts) order in
          let g = F.group facts (List.sort Int.compare ranks) in
          let first = List.hd ranks in
          let head = F.rank_stmt facts first in
          vector_ops := !vector_ops + Stmt.op_count head;
          if Float.is_nan m.vector_op_cost.(first) then
            m.vector_op_cost.(first) <- weighted_ops params ~base:params.vector_op head.Stmt.rhs;
          charge m.vector_op_cost.(first);
          let positions = g.F.positions and keys = g.F.keys in
          let lanes = Array.map (F.lanes facts ranks) positions in
          for i = 1 to Array.length positions - 1 do
            pack_source lanes.(i) keys.(i)
          done;
          pack_dest idx lanes.(0) keys.(0);
          Live.invalidate live g.F.clobbers;
          for i = Array.length positions - 1 downto 0 do
            Live.insert live ~lanes:lanes.(i) ~key:keys.(i)
          done)
    items;
  {
    scalar_cost = m.scalar_cost;
    vector_cost = !vcost;
    vector_ops = !vector_ops;
    vector_memops = !vector_memops;
    scalar_memops_in_packs = !scalar_memops_in_packs;
    inserts = !inserts;
    extracts = !extracts;
    permutes = !permutes;
  }

let estimate ?params ~query block sched =
  (* Pricing never consults dependences. *)
  estimate_facts ?params ~query (Schedule.Facts.make ~deps:[] block) sched
