open Slp_ir
module M = Slp_machine.Machine

type result = Engine.result = { counters : Counters.t; memory : Memory.t }

let elem_indices ~index_env idxs = List.map (fun ix -> Affine.eval ix index_env) idxs

let exec_stmt ~memory ~cache ~counters ~machine ~index_env (s : Stmt.t) =
  let costs = machine.M.costs in
  let charge c = counters.Counters.centicycles <- counters.Counters.centicycles + c in
  let read_operand op =
    match op with
    | Operand.Const c -> c
    | Operand.Scalar v -> begin
        (* A loop index used as a value reads the induction variable. *)
        match index_env v with
        | i -> float_of_int i
        | exception Not_found -> Memory.scalar memory v
      end
    | Operand.Elem (b, idxs) ->
        let flat = Memory.flat_index memory b (elem_indices ~index_env idxs) in
        counters.Counters.scalar_loads <- counters.Counters.scalar_loads + 1;
        charge
          ((100 * costs.M.load_issue)
          + Cache.access cache
              ~addr:(Memory.array_base memory b + (flat * Memory.elem_bytes memory b))
              ~bytes:(Memory.elem_bytes memory b));
        Memory.load memory b flat
  in
  let value = Expr.eval s.Stmt.rhs read_operand in
  counters.Counters.scalar_ops <- counters.Counters.scalar_ops + Stmt.op_count s;
  let op_cycles =
    List.fold_left
      (fun acc op ->
        acc
        +
        match op with
        | Either.Left Types.Div -> costs.M.divide
        | Either.Right Types.Sqrt -> costs.M.square_root
        | Either.Left _ -> costs.M.scalar_op
        | Either.Right _ -> costs.M.scalar_op)
      0
      (Expr.operators s.Stmt.rhs)
  in
  charge (100 * op_cycles);
  match s.Stmt.lhs with
  | Operand.Scalar v -> Memory.set_scalar memory v value
  | Operand.Elem (b, idxs) ->
      let flat = Memory.flat_index memory b (elem_indices ~index_env idxs) in
      counters.Counters.scalar_stores <- counters.Counters.scalar_stores + 1;
      charge
        ((100 * costs.M.store_issue)
        + Cache.access cache
            ~addr:(Memory.array_base memory b + (flat * Memory.elem_bytes memory b))
            ~bytes:(Memory.elem_bytes memory b));
      Memory.store memory b flat value
  | Operand.Const _ -> assert false

(* Execute items; [override] optionally replaces the bounds of the
   outermost loop (multicore partitioning). *)
let rec exec_items ~memory ~cache ~counters ~machine ~bindings ~override items =
  let index_env v =
    match List.assoc_opt v bindings with Some i -> i | None -> raise Not_found
  in
  List.iter
    (fun item ->
      match item with
      | Program.Stmts b ->
          List.iter
            (fun (s : Stmt.t) ->
              try exec_stmt ~memory ~cache ~counters ~machine ~index_env s
              with Trap.Trap ({ Trap.stmt = None; _ } as i) ->
                (* Attribute the trap to the statement being executed. *)
                raise (Trap.Trap { i with Trap.stmt = Some s.Stmt.id }))
            b.Block.stmts
      | Program.Loop l ->
          let lo, hi =
            match override with
            | Some (lo, hi) -> (lo, hi)
            | None -> (Affine.eval l.Program.lo index_env, Affine.eval l.Program.hi index_env)
          in
          let i = ref lo in
          while !i < hi do
            exec_items ~memory ~cache ~counters ~machine
              ~bindings:((l.Program.index, !i) :: bindings)
              ~override:None l.Program.body;
            i := !i + l.Program.step
          done)
    items

let chunk_ranges = Engine.chunk_ranges

let rec run_interpreter ?(cores = 1) ?(seed = 42) ?memory ~machine (prog : Program.t) =
  let memory =
    match memory with
    | Some m -> m
    | None ->
        let m = Memory.create ~env:prog.Program.env () in
        Memory.init_arrays m ~seed;
        m
  in
  if cores <= 1 then begin
    let cache = Cache.create machine in
    let counters = Counters.create () in
    exec_items ~memory ~cache ~counters ~machine ~bindings:[] ~override:None
      prog.Program.body;
    { counters; memory }
  end
  else begin
    (* Partition the first top-level loop; everything else runs on
       core 0. *)
    match
      List.find_map
        (function Program.Loop l -> Some l | Program.Stmts _ -> None)
        prog.Program.body
    with
    | None -> run_interpreter ~cores:1 ~seed ~memory ~machine prog
    | Some main_loop ->
        let lo = Affine.eval main_loop.Program.lo (fun _ -> raise Not_found) in
        let hi = Affine.eval main_loop.Program.hi (fun _ -> raise Not_found) in
        let ranges = chunk_ranges ~lo ~hi ~step:main_loop.Program.step ~cores in
        (* same chunk semantics as the engine: with a [Parallel]
           verdict each core runs on a privatized scalar store and
           recognised reductions merge from per-core partials *)
        let image = Visa.of_program prog in
        let _, _, names = Engine.program_footprint image in
        List.iter (fun v -> ignore (Memory.scalar_slot memory v)) names;
        let priv =
          Engine.make_privatizer ~memory ~ranges ~verdict:(Parcheck.analyze image)
        in
        let all = Counters.create () in
        let max_cycles = ref 0 in
        List.iteri
          (fun core (clo, chi) ->
            let cache = Cache.create ~cores machine in
            let counters = Counters.create () in
            priv.Engine.p_enter core;
            List.iter
              (fun item ->
                match item with
                | Program.Loop l when l == main_loop ->
                    exec_items ~memory ~cache ~counters ~machine ~bindings:[]
                      ~override:(Some (clo, chi))
                      [ Program.Loop l ]
                | Program.Loop _ | Program.Stmts _ ->
                    if core = 0 then
                      exec_items ~memory ~cache ~counters ~machine ~bindings:[]
                        ~override:None [ item ])
              prog.Program.body;
            priv.Engine.p_exit core;
            max_cycles := Int.max !max_cycles counters.Counters.centicycles;
            counters.Counters.centicycles <- 0;
            Counters.merge_into ~into:all counters)
          ranges;
        priv.Engine.p_finish ();
        all.Counters.centicycles <- !max_cycles;
        { counters = all; memory }
  end

(* The compiled engine is the production path; the interpreter above
   stays as the reference oracle (the fuzz suite runs both and asserts
   identical results). *)
let run = Engine.run_scalar
let final_memory = Engine.scalar_final_memory
