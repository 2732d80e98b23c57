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
   before) and operator counts, the answers of [scalar_live_out] by
   operand id (0 = not asked yet, 1 = no, 2 = yes), and per ordered
   pack (a position of a {!Schedule.Facts.view}) the answers of
   [contiguous] and [aligned] for the pack and for its reverse, two
   bits each in that order.  [last_read] is per-estimate scratch. *)
type memo = {
  query : query;
  params : params;
  scalar_cost : float;
  stmt_cost : float array;  (** By rank. *)
  vector_op_cost : float array;  (** By rank. *)
  op_count : int array;  (** By rank. *)
  live_out : int array;
  mutable verdicts : Bytes.t array;  (** By view id, a byte per group position. *)
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
          op_count = Array.init (F.rank_count facts) (fun r -> Stmt.op_count (F.rank_stmt facts r));
          live_out = Array.make (F.id_count facts) 0;
          verdicts = [||];
          last_read = Array.make (F.id_count facts) (-1);
        }
      in
      F.set_pricing facts (Memo m);
      m

(* Question [q] of the ordered pack at group position [i] of view [v]:
   0 = contiguous, 1 = aligned, 2 and 3 the same of the reversed
   lanes. *)
let verdict facts m (v : Schedule.Facts.view) i q =
  let module F = Schedule.Facts in
  if v.F.id >= Array.length m.verdicts then begin
    let grown = Array.make (max 16 (2 * (v.F.id + 1))) Bytes.empty in
    Array.blit m.verdicts 0 grown 0 (Array.length m.verdicts);
    m.verdicts <- grown
  end;
  if Bytes.length m.verdicts.(v.F.id) = 0 then
    m.verdicts.(v.F.id) <- Bytes.make (Array.length v.F.lanes) '\000';
  let row = m.verdicts.(v.F.id) in
  let bits = Char.code (Bytes.get row i) in
  match (bits lsr (2 * q)) land 3 with
  | 0 ->
      let ops = Array.fold_right (fun i acc -> F.operand facts i :: acc) v.F.lanes.(i) [] in
      let ops = if q >= 2 then List.rev ops else ops in
      let yes = (if q land 1 = 0 then m.query.contiguous else m.query.aligned) ops in
      Bytes.set row i (Char.chr (bits lor ((if yes then 2 else 1) lsl (2 * q))));
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

(* One estimate in progress: what it reads and its running counts.
   The cost lives apart, in a record of floats alone, which OCaml
   stores flat: adding to it allocates nothing. *)
type total = { mutable cost : float }

type pricer = {
  facts : Schedule.Facts.t;
  m : memo;
  params : params;
  live : Live.t;
  first_scalar : int;
  first_elem : int;
  total : total;
  mutable vector_ops : int;
  mutable vector_memops : int;
  mutable scalar_memops_in_packs : int;
  mutable inserts : int;
  mutable extracts : int;
  mutable permutes : int;
}

let[@inline] charge p c = p.total.cost <- p.total.cost +. c

(* A pack's kind from its multiset: ids order constants, scalars, then
   elements. *)
let all_elem p (key : int array) = key.(0) >= p.first_elem

let all_scalar p (key : int array) =
  key.(0) >= p.first_scalar && key.(Array.length key - 1) < p.first_elem

let pack_source p (v : Schedule.Facts.view) i =
  let lanes = v.Schedule.Facts.lanes.(i) and key = v.Schedule.Facts.group.Schedule.Facts.keys.(i) in
  let params = p.params and live = p.live in
  let n = Array.length lanes in
  if Live.mem_exact live lanes then ()
  else if Live.mem_multiset live key then begin
    p.permutes <- p.permutes + 1;
    charge p params.permute
  end
  else if Live.coverable_by_two live key then begin
    p.permutes <- p.permutes + 1;
    charge p params.permute
  end
  else if key.(0) = key.(n - 1) then begin
    (* Splat: one broadcast, plus one element load when the value
       comes from memory. *)
    charge p params.broadcast;
    if all_elem p key then begin
      p.scalar_memops_in_packs <- p.scalar_memops_in_packs + 1;
      charge p params.scalar_load
    end
  end
  else if all_elem p key then
    if verdict p.facts p.m v i 0 then begin
      p.vector_memops <- p.vector_memops + 1;
      charge p params.vector_load;
      if not (verdict p.facts p.m v i 1) then charge p params.unaligned_extra
    end
    else if verdict p.facts p.m v i 2 then begin
      p.vector_memops <- p.vector_memops + 1;
      p.permutes <- p.permutes + 1;
      charge p (params.vector_load +. params.permute);
      if not (verdict p.facts p.m v i 3) then charge p params.unaligned_extra
    end
    else begin
      p.scalar_memops_in_packs <- p.scalar_memops_in_packs + n;
      p.inserts <- p.inserts + n;
      charge p (float_of_int n *. (params.scalar_load +. params.insert))
    end
  else if all_scalar p key then
    if verdict p.facts p.m v i 0 then begin
      p.vector_memops <- p.vector_memops + 1;
      charge p params.vector_load;
      if not (verdict p.facts p.m v i 1) then charge p params.unaligned_extra
    end
    else begin
      p.inserts <- p.inserts + n;
      charge p (float_of_int n *. params.insert)
    end
  else
    for l = 0 to n - 1 do
      p.inserts <- p.inserts + 1;
      charge p params.insert;
      if lanes.(l) >= p.first_elem then begin
        p.scalar_memops_in_packs <- p.scalar_memops_in_packs + 1;
        charge p params.scalar_load
      end
    done

let pack_dest p item_idx (v : Schedule.Facts.view) =
  let lanes = v.Schedule.Facts.lanes.(0) and key = v.Schedule.Facts.group.Schedule.Facts.keys.(0) in
  let params = p.params in
  let n = Array.length lanes in
  if all_elem p key then
    if verdict p.facts p.m v 0 0 then begin
      p.vector_memops <- p.vector_memops + 1;
      charge p params.vector_store;
      if not (verdict p.facts p.m v 0 1) then charge p params.unaligned_extra
    end
    else if verdict p.facts p.m v 0 2 then begin
      p.vector_memops <- p.vector_memops + 1;
      p.permutes <- p.permutes + 1;
      charge p (params.vector_store +. params.permute);
      if not (verdict p.facts p.m v 0 3) then charge p params.unaligned_extra
    end
    else begin
      p.extracts <- p.extracts + n;
      p.scalar_memops_in_packs <- p.scalar_memops_in_packs + n;
      charge p (float_of_int n *. (params.extract +. params.scalar_store))
    end
  else begin
    (* Scalars stay in the vector register unless some later Single
       (or the world outside the block) needs them as scalars. *)
    let needed = ref 0 in
    for l = 0 to n - 1 do
      let i = lanes.(l) in
      if
        i >= p.first_scalar && i < p.first_elem
        && (scalar_live_out p.facts p.m i || p.m.last_read.(i) > item_idx)
      then incr needed
    done;
    let needed = !needed in
    if needed > 0 then
      if needed = n && verdict p.facts p.m v 0 0 then begin
        (* The scalar layout optimization placed them adjacently: one
           vector store materialises all of them. *)
        p.vector_memops <- p.vector_memops + 1;
        charge p params.vector_store
      end
      else begin
        p.extracts <- p.extracts + needed;
        charge p (float_of_int needed *. (params.extract +. params.scalar_store))
      end
  end

(* Scalars read by later Single items, per item index: a superword
   defining such a scalar must unpack it. *)
let rec note_reads p idx = function
  | [] -> ()
  | Schedule.Single sid :: rest ->
      let row = Schedule.Facts.row p.facts (Schedule.Facts.rank p.facts sid) in
      for pos = 1 to Array.length row - 1 do
        let i = row.(pos) in
        if i >= p.first_scalar && i < p.first_elem then p.m.last_read.(i) <- idx
      done;
      note_reads p (idx + 1) rest
  | Schedule.Superword _ :: rest -> note_reads p (idx + 1) rest

let rec price p idx = function
  | [] -> ()
  | item :: rest ->
      let module F = Schedule.Facts in
      (match item with
      | Schedule.Single sid ->
          let r = F.rank p.facts sid in
          charge p p.m.stmt_cost.(r);
          Live.invalidate p.live (F.clobbers p.facts (F.row p.facts r).(0))
      | Schedule.Superword order ->
          let v = F.view p.facts order in
          let g = v.F.group and lanes = v.F.lanes in
          let first = List.hd v.F.order in
          p.vector_ops <- p.vector_ops + p.m.op_count.(first);
          if Float.is_nan p.m.vector_op_cost.(first) then
            p.m.vector_op_cost.(first) <-
              weighted_ops p.params ~base:p.params.vector_op (F.rank_stmt p.facts first).Stmt.rhs;
          charge p p.m.vector_op_cost.(first);
          let keys = g.F.keys in
          for i = 1 to Array.length keys - 1 do
            pack_source p v i
          done;
          pack_dest p idx v;
          Live.invalidate p.live g.F.clobbers;
          for i = Array.length keys - 1 downto 0 do
            Live.insert p.live ~lanes:lanes.(i) ~key:keys.(i)
          done);
      price p (idx + 1) rest

let estimate_facts ?(params = default_params) ~query facts (sched : Schedule.t) =
  let module F = Schedule.Facts in
  let m = memo_of ~params ~query facts in
  let p =
    {
      facts;
      m;
      params;
      live = F.live facts ~capacity:64;
      first_scalar = F.first_scalar facts;
      first_elem = F.first_elem facts;
      total = { cost = 0.0 };
      vector_ops = 0;
      vector_memops = 0;
      scalar_memops_in_packs = 0;
      inserts = 0;
      extracts = 0;
      permutes = 0;
    }
  in
  Array.fill m.last_read 0 (Array.length m.last_read) (-1);
  note_reads p 0 sched.Schedule.items;
  price p 0 sched.Schedule.items;
  {
    scalar_cost = m.scalar_cost;
    vector_cost = p.total.cost;
    vector_ops = p.vector_ops;
    vector_memops = p.vector_memops;
    scalar_memops_in_packs = p.scalar_memops_in_packs;
    inserts = p.inserts;
    extracts = p.extracts;
    permutes = p.permutes;
  }

let estimate ?params ~query block sched =
  (* Pricing never consults dependences. *)
  estimate_facts ?params ~query (Schedule.Facts.make ~deps:[] block) sched
