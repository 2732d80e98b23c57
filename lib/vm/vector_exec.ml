open Slp_ir
module M = Slp_machine.Machine

type result = Engine.result = { counters : Counters.t; memory : Memory.t }

type state = {
  memory : Memory.t;
  cache : Cache.t;
  counters : Counters.t;
  machine : M.t;
  vregs : float array array;  (* dense register file; [unwritten] marks unset *)
}

(* Physically unique sentinel for registers never written; a real
   register value always has at least one lane. *)
let unwritten : float array = [||]

let charge st c = st.counters.Counters.centicycles <- st.counters.Counters.centicycles + c

let elem_location st ~index_env op =
  match op with
  | Operand.Elem (b, idxs) ->
      let concrete = List.map (fun ix -> Affine.eval ix index_env) idxs in
      let flat = Memory.flat_index st.memory b concrete in
      let bytes = Memory.elem_bytes st.memory b in
      (b, flat, Memory.array_base st.memory b + (flat * bytes), bytes)
  | Operand.Const _ | Operand.Scalar _ ->
      invalid_arg "Vector_exec: expected an array element operand"

let read_scalar st ~index_env v =
  match index_env v with
  | i -> float_of_int i
  | exception Not_found -> Memory.scalar st.memory v

let vreg st r =
  let lanes = if r < Array.length st.vregs then st.vregs.(r) else unwritten in
  if lanes == unwritten then
    invalid_arg (Printf.sprintf "Vector_exec: v%d read before write" r)
  else lanes

let exec_instr st ~index_env instr =
  let costs = st.machine.M.costs in
  match instr with
  | Visa.Vload { dst; elems } ->
      let locs = List.map (elem_location st ~index_env) elems in
      let values =
        Array.of_list (List.map (fun (b, flat, _, _) -> Memory.load st.memory b flat) locs)
      in
      let _, _, addr0, bytes = List.hd locs in
      st.counters.Counters.vector_loads <- st.counters.Counters.vector_loads + 1;
      charge st
        ((100 * costs.M.load_issue)
        + Cache.access st.cache ~addr:addr0 ~bytes:(bytes * List.length elems));
      st.vregs.(dst) <- values
  | Visa.Vstore { src; elems } ->
      let lanes = vreg st src in
      let locs = List.map (elem_location st ~index_env) elems in
      List.iteri
        (fun i (b, flat, _, _) -> Memory.store st.memory b flat lanes.(i))
        locs;
      let _, _, addr0, bytes = List.hd locs in
      st.counters.Counters.vector_stores <- st.counters.Counters.vector_stores + 1;
      charge st
        ((100 * costs.M.store_issue)
        + Cache.access st.cache ~addr:addr0 ~bytes:(bytes * List.length elems))
  | Visa.Vgather { dst; srcs } ->
      let values =
        Array.of_list
          (List.map
             (fun src ->
               match src with
               | Visa.Imm f -> f
               | Visa.Reg v -> read_scalar st ~index_env v
               | Visa.Mem op ->
                   let b, flat, addr, bytes = elem_location st ~index_env op in
                   st.counters.Counters.pack_loads <-
                     st.counters.Counters.pack_loads + 1;
                   charge st
                     ((100 * costs.M.load_issue)
                     + Cache.access st.cache ~addr ~bytes);
                   Memory.load st.memory b flat)
             srcs)
      in
      st.counters.Counters.inserts <- st.counters.Counters.inserts + List.length srcs;
      charge st (100 * List.length srcs * costs.M.insert);
      st.vregs.(dst) <- values
  | Visa.Vunpack { src; dsts } ->
      let lanes = vreg st src in
      List.iteri
        (fun i dst ->
          match dst with
          | None -> ()
          | Some d -> begin
              st.counters.Counters.extracts <- st.counters.Counters.extracts + 1;
              charge st (100 * costs.M.extract);
              match d with
              | Visa.To_reg v -> Memory.set_scalar st.memory v lanes.(i)
              | Visa.To_mem op ->
                  let b, flat, addr, bytes = elem_location st ~index_env op in
                  st.counters.Counters.pack_stores <-
                    st.counters.Counters.pack_stores + 1;
                  charge st
                    ((100 * costs.M.store_issue)
                    + Cache.access st.cache ~addr ~bytes);
                  Memory.store st.memory b flat lanes.(i)
            end)
        dsts
  | Visa.Vbroadcast { dst; src; lanes } ->
      let value =
        match src with
        | Visa.Imm f -> f
        | Visa.Reg v -> read_scalar st ~index_env v
        | Visa.Mem op ->
            let b, flat, addr, bytes = elem_location st ~index_env op in
            st.counters.Counters.pack_loads <- st.counters.Counters.pack_loads + 1;
            charge st
              ((100 * costs.M.load_issue)
              + Cache.access st.cache ~addr ~bytes);
            Memory.load st.memory b flat
      in
      st.counters.Counters.broadcasts <- st.counters.Counters.broadcasts + 1;
      charge st (100 * costs.M.broadcast);
      st.vregs.(dst) <- (Array.make lanes value)
  | Visa.Vpermute { dst; src; sel } ->
      let lanes = vreg st src in
      st.counters.Counters.permutes <- st.counters.Counters.permutes + 1;
      charge st (100 * costs.M.permute);
      st.vregs.(dst) <- (Array.map (fun i -> lanes.(i)) sel)
  | Visa.Vshuffle2 { dst; a; b; sel } ->
      let la = vreg st a and lb = vreg st b in
      st.counters.Counters.permutes <- st.counters.Counters.permutes + 1;
      charge st (100 * costs.M.permute);
      st.vregs.(dst) <-
        (Array.map (fun (src, lane) -> if src = 0 then la.(lane) else lb.(lane)) sel)
  | Visa.Vbin { dst; op; a; b } ->
      let la = vreg st a and lb = vreg st b in
      st.counters.Counters.vector_ops <- st.counters.Counters.vector_ops + 1;
      charge st (100 * match op with Types.Div -> costs.M.divide | _ -> costs.M.vector_op);
      st.vregs.(dst) <-
        (Array.init (Array.length la) (fun i -> Types.eval_binop op la.(i) lb.(i)))
  | Visa.Vun { dst; op; a } ->
      let la = vreg st a in
      st.counters.Counters.vector_ops <- st.counters.Counters.vector_ops + 1;
      charge st
        (100
        * (match op with
          | Types.Sqrt -> costs.M.square_root
          | Types.Neg | Types.Abs -> costs.M.vector_op));
      st.vregs.(dst) <- (Array.map (Types.eval_unop op) la)
  | Visa.Vspill { src; slot } ->
      let lanes = vreg st src in
      Memory.spill_store st.memory ~slot lanes;
      st.counters.Counters.vector_stores <- st.counters.Counters.vector_stores + 1;
      charge st
        ((100 * costs.M.store_issue)
        + Cache.access st.cache
             ~addr:(Memory.spill_addr st.memory ~slot)
             ~bytes:(8 * Array.length lanes))
  | Visa.Vreload { dst; slot } ->
      let lanes = Memory.spill_load st.memory ~slot in
      st.counters.Counters.vector_loads <- st.counters.Counters.vector_loads + 1;
      charge st
        ((100 * costs.M.load_issue)
        + Cache.access st.cache
             ~addr:(Memory.spill_addr st.memory ~slot)
             ~bytes:(8 * Array.length lanes));
      st.vregs.(dst) <- lanes
  | Visa.Vload_scalars { dst; sources } ->
      let values =
        Array.of_list (List.map (fun v -> Memory.scalar st.memory v) sources)
      in
      st.counters.Counters.vector_loads <- st.counters.Counters.vector_loads + 1;
      charge st
        ((100 * costs.M.load_issue)
        + Cache.access st.cache
             ~addr:(Memory.scalar_addr st.memory (List.hd sources))
             ~bytes:(8 * List.length sources));
      st.vregs.(dst) <- values
  | Visa.Vstore_scalars { src; targets } ->
      let lanes = vreg st src in
      List.iteri (fun i v -> Memory.set_scalar st.memory v lanes.(i)) targets;
      st.counters.Counters.vector_stores <- st.counters.Counters.vector_stores + 1;
      charge st
        ((100 * costs.M.store_issue)
        + Cache.access st.cache
             ~addr:(Memory.scalar_addr st.memory (List.hd targets))
             ~bytes:(8 * List.length targets))
  | Visa.Sstmt s -> (
      try
        Scalar_exec.exec_stmt ~memory:st.memory ~cache:st.cache ~counters:st.counters
          ~machine:st.machine ~index_env s
      with Trap.Trap ({ Trap.stmt = None; _ } as i) ->
        (* Attribute the trap to the statement, as [Scalar_exec] does. *)
        raise (Trap.Trap { i with Trap.stmt = Some s.Stmt.id }))

let rec exec_items st ~bindings ~override items =
  let index_env v =
    match List.assoc_opt v bindings with Some i -> i | None -> raise Not_found
  in
  List.iter
    (fun item ->
      match item with
      | Visa.Block instrs -> List.iter (exec_instr st ~index_env) instrs
      | Visa.Loop l ->
          let lo, hi =
            match override with
            | Some (lo, hi) -> (lo, hi)
            | None -> (Affine.eval l.Visa.lo index_env, Affine.eval l.Visa.hi index_env)
          in
          let i = ref lo in
          while !i < hi do
            exec_items st
              ~bindings:((l.Visa.index, !i) :: bindings)
              ~override:None l.Visa.body;
            i := !i + l.Visa.step
          done)
    items

let rec run_interpreter ?(cores = 1) ?(seed = 42) ?memory ~machine (prog : Visa.program) =
  let memory =
    match memory with
    | Some m -> m
    | None ->
        let m = Memory.create ~env:prog.Visa.env () in
        Memory.init_arrays m ~seed;
        m
  in
  let nvregs, slots, names = Engine.program_footprint prog in
  let nvregs = max 1 nvregs in
  Memory.reserve_spills memory ~slots
    ~max_lanes:(Engine.program_lane_stride prog);
  let setup_state =
    {
      memory;
      cache = Cache.create machine;
      counters = Counters.create ();
      machine;
      vregs = Array.make nvregs unwritten;
    }
  in
  (* Setup (layout replication) runs once.  Replication loops are data
     parallel, so under multicore execution each one is partitioned
     like the main loop and its time is the slowest core's share. *)
  let setup_cycles =
    if cores <= 1 then begin
      exec_items setup_state ~bindings:[] ~override:None prog.Visa.setup;
      let c = setup_state.counters.Counters.centicycles in
      setup_state.counters.Counters.centicycles <- 0;
      c
    end
    else begin
      let total = ref 0 in
      List.iter
        (fun item ->
          match item with
          | Visa.Loop l -> begin
              match
                ( Affine.eval l.Visa.lo (fun _ -> raise Not_found),
                  Affine.eval l.Visa.hi (fun _ -> raise Not_found) )
              with
              | lo, hi ->
                  let ranges =
                    Scalar_exec.chunk_ranges ~lo ~hi ~step:l.Visa.step ~cores
                  in
                  let slowest = ref 0 in
                  List.iter
                    (fun (clo, chi) ->
                      let before = setup_state.counters.Counters.centicycles in
                      exec_items setup_state ~bindings:[]
                        ~override:(Some (clo, chi))
                        [ Visa.Loop l ];
                      let spent = setup_state.counters.Counters.centicycles - before in
                      slowest := Int.max !slowest spent)
                    ranges;
                  total := !total + !slowest
              | exception Not_found ->
                  exec_items setup_state ~bindings:[] ~override:None [ item ]
            end
          | Visa.Block _ ->
              exec_items setup_state ~bindings:[] ~override:None [ item ])
        prog.Visa.setup;
      setup_state.counters.Counters.centicycles <- 0;
      !total
    end
  in
  setup_state.counters.Counters.setup_centicycles <- setup_cycles;
  if cores <= 1 then begin
    exec_items setup_state ~bindings:[] ~override:None prog.Visa.body;
    { counters = setup_state.counters; memory }
  end
  else begin
    match
      List.find_map
        (function Visa.Loop l -> Some l | Visa.Block _ -> None)
        prog.Visa.body
    with
    | None ->
        let r = run_interpreter ~cores:1 ~seed ~memory ~machine { prog with Visa.setup = [] } in
        r.counters.Counters.setup_centicycles <- setup_cycles;
        r
    | Some main_loop ->
        let lo = Affine.eval main_loop.Visa.lo (fun _ -> raise Not_found) in
        let hi = Affine.eval main_loop.Visa.hi (fun _ -> raise Not_found) in
        let ranges = Scalar_exec.chunk_ranges ~lo ~hi ~step:main_loop.Visa.step ~cores in
        (* same chunk semantics as the engine: with a [Parallel]
           verdict each core runs on a privatized scalar store and
           recognised reductions merge from per-core partials; the
           entry snapshot is taken after setup has run *)
        List.iter (fun v -> ignore (Memory.scalar_slot memory v)) names;
        let priv =
          Engine.make_privatizer ~memory ~ranges
            ~verdict:(Parcheck.analyze prog)
        in
        let all = setup_state.counters in
        let max_cycles = ref 0 in
        List.iteri
          (fun core (clo, chi) ->
            let st =
              {
                memory;
                cache = Cache.create ~cores machine;
                counters = Counters.create ();
                machine;
                vregs = Array.make nvregs unwritten;
              }
            in
            priv.Engine.p_enter core;
            List.iter
              (fun item ->
                match item with
                | Visa.Loop l when l == main_loop ->
                    exec_items st ~bindings:[] ~override:(Some (clo, chi))
                      [ Visa.Loop l ]
                | Visa.Loop _ | Visa.Block _ ->
                    if core = 0 then exec_items st ~bindings:[] ~override:None [ item ])
              prog.Visa.body;
            priv.Engine.p_exit core;
            max_cycles := Int.max !max_cycles st.counters.Counters.centicycles;
            st.counters.Counters.centicycles <- 0;
            Counters.merge_into ~into:all st.counters)
          ranges;
        priv.Engine.p_finish ();
        all.Counters.centicycles <- !max_cycles;
        { counters = all; memory }
  end

(* The compiled engine is the production path; the interpreter above
   stays as the reference oracle (the fuzz suite runs both and asserts
   identical results). *)
let run = Engine.run_vector
