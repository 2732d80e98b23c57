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

let classify ops =
  let is_elem = function Operand.Elem _ -> true | _ -> false in
  let is_scalar = function Operand.Scalar _ -> true | _ -> false in
  if List.for_all is_elem ops then `All_elem
  else if List.for_all is_scalar ops then `All_scalar
  else `Mixed

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

let estimate_facts ?(params = default_params) ~query facts (sched : Schedule.t) =
  let module F = Schedule.Facts in
  let block = F.block facts in
  let scalar_cost =
    List.fold_left (fun acc s -> acc +. scalar_stmt_cost params s) 0.0 block.Block.stmts
  in
  (* Scalars read by later Single items, per item index: a superword
     defining such a scalar must unpack it. *)
  let items = Array.of_list sched.Schedule.items in
  let scalar_used_by_single_after = Hashtbl.create 16 in
  (* var -> last item index where a Single reads it *)
  Array.iteri
    (fun idx item ->
      match item with
      | Schedule.Single sid ->
          List.iter
            (function
              | Operand.Scalar v -> Hashtbl.replace scalar_used_by_single_after v idx
              | Operand.Const _ | Operand.Elem _ -> ())
            (Stmt.uses (F.stmt facts sid))
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
  let pack_source ordered =
    let pack = Pack.of_operands ordered in
    if Pack.all_constant pack then ()
    else if Live.mem_exact live ordered then ()
    else if Live.mem_multiset live pack then begin
      incr permutes;
      charge params.permute
    end
    else if Live.coverable_by_two live pack then begin
      incr permutes;
      charge params.permute
    end
    else begin
      let n = List.length ordered in
      let all_equal =
        match ordered with
        | first :: rest -> List.for_all (Operand.equal first) rest
        | [] -> false
      in
      if all_equal then begin
        (* Splat: one broadcast, plus one element load when the value
           comes from memory. *)
        charge params.broadcast;
        match ordered with
        | Operand.Elem _ :: _ ->
            incr scalar_memops_in_packs;
            charge params.scalar_load
        | _ -> ()
      end
      else
      match classify ordered with
      | `All_elem ->
          if query.contiguous ordered then begin
            incr vector_memops;
            charge params.vector_load;
            if not (query.aligned ordered) then charge params.unaligned_extra
          end
          else if query.contiguous (List.rev ordered) then begin
            incr vector_memops;
            incr permutes;
            charge (params.vector_load +. params.permute);
            if not (query.aligned (List.rev ordered)) then charge params.unaligned_extra
          end
          else begin
            scalar_memops_in_packs := !scalar_memops_in_packs + n;
            inserts := !inserts + n;
            charge (float_of_int n *. (params.scalar_load +. params.insert))
          end
      | `All_scalar ->
          if query.contiguous ordered then begin
            incr vector_memops;
            charge params.vector_load;
            if not (query.aligned ordered) then charge params.unaligned_extra
          end
          else begin
            inserts := !inserts + n;
            charge (float_of_int n *. params.insert)
          end
      | `Mixed ->
          List.iter
            (fun op ->
              incr inserts;
              charge params.insert;
              match op with
              | Operand.Elem _ ->
                  incr scalar_memops_in_packs;
                  charge params.scalar_load
              | Operand.Scalar _ | Operand.Const _ -> ())
            ordered
    end
  in
  let pack_dest item_idx ordered =
    let n = List.length ordered in
    match classify ordered with
    | `All_elem ->
        if query.contiguous ordered then begin
          incr vector_memops;
          charge params.vector_store;
          if not (query.aligned ordered) then charge params.unaligned_extra
        end
        else if query.contiguous (List.rev ordered) then begin
          incr vector_memops;
          incr permutes;
          charge (params.vector_store +. params.permute);
          if not (query.aligned (List.rev ordered)) then charge params.unaligned_extra
        end
        else begin
          extracts := !extracts + n;
          scalar_memops_in_packs := !scalar_memops_in_packs + n;
          charge (float_of_int n *. (params.extract +. params.scalar_store))
        end
    | `All_scalar | `Mixed ->
        (* Scalars stay in the vector register unless some later Single
           (or the world outside the block) needs them as scalars. *)
        let needed =
          List.filter
            (function
              | Operand.Scalar v ->
                  query.scalar_live_out v
                  ||
                  (match Hashtbl.find_opt scalar_used_by_single_after v with
                  | Some last -> last > item_idx
                  | None -> false)
              | Operand.Const _ | Operand.Elem _ -> false)
            ordered
        in
        if needed <> [] then
          if List.length needed = n && query.contiguous ordered then begin
            (* The scalar layout optimization placed them adjacently:
               one vector store materialises all of them. *)
            incr vector_memops;
            charge params.vector_store
          end
          else begin
            extracts := !extracts + List.length needed;
            charge (float_of_int (List.length needed) *. (params.extract +. params.scalar_store))
          end
  in
  Array.iteri
    (fun idx item ->
      match item with
      | Schedule.Single sid ->
          let s = F.stmt facts sid in
          charge (scalar_stmt_cost params s);
          Live.invalidate live ~defs:[ Stmt.def s ]
      | Schedule.Superword order ->
          let first = F.stmt facts (List.hd order) in
          vector_ops := !vector_ops + Stmt.op_count first;
          charge (weighted_ops params ~base:params.vector_op first.Stmt.rhs);
          let ordered = Array.init (F.position_count facts first.Stmt.id) (F.ordered facts order) in
          let npos = Array.length ordered in
          for pos = 1 to npos - 1 do
            pack_source ordered.(pos)
          done;
          pack_dest idx ordered.(0);
          Live.invalidate live ~defs:ordered.(0);
          for pos = npos - 1 downto 0 do
            if not (Pack.all_constant (Pack.of_operands ordered.(pos))) then
              Live.insert live ordered.(pos)
          done)
    items;
  {
    scalar_cost;
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

let profitable ?params ~query block sched =
  let e = estimate ?params ~query block sched in
  e.vector_cost < e.scalar_cost
