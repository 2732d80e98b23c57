module E = Slp_util.Slp_error
module Visa = Slp_vm.Visa
module Profile = Slp_obs.Profile

type stats = { spills : int; reloads : int; max_pressure : int }

let zero_stats = { spills = 0; reloads = 0; max_pressure = 0 }

let add_stats a b =
  {
    spills = a.spills + b.spills;
    reloads = a.reloads + b.reloads;
    max_pressure = max a.max_pressure b.max_pressure;
  }

(* The registers [instr] reads, in operand order ([Vbin] may read one
   twice: every use below is idempotent), and the one it writes. *)
let instr_regs instr =
  let def = ref None in
  let uses =
    Visa.fold_locs
      (fun uses ~write -> function
        | Visa.Vreg v when write ->
            def := Some v;
            uses
        | Visa.Vreg v -> v :: uses
        | _ -> uses)
      [] instr
  in
  (List.rev uses, !def)

let rewrite instr ~use ~def =
  match instr with
  | Visa.Vload { dst; elems } -> Visa.Vload { dst = def dst; elems }
  | Visa.Vstore { src; elems } -> Visa.Vstore { src = use src; elems }
  | Visa.Vgather { dst; srcs } -> Visa.Vgather { dst = def dst; srcs }
  | Visa.Vunpack { src; dsts } -> Visa.Vunpack { src = use src; dsts }
  | Visa.Vbroadcast { dst; src; lanes } -> Visa.Vbroadcast { dst = def dst; src; lanes }
  | Visa.Vpermute { dst; src; sel } ->
      let src = use src in
      Visa.Vpermute { dst = def dst; src; sel }
  | Visa.Vshuffle2 { dst; a; b; sel } ->
      let a = use a and b = use b in
      Visa.Vshuffle2 { dst = def dst; a; b; sel }
  | Visa.Vbin { dst; op; a; b } ->
      let a = use a and b = use b in
      Visa.Vbin { dst = def dst; op; a; b }
  | Visa.Vun { dst; op; a } ->
      let a = use a in
      Visa.Vun { dst = def dst; op; a }
  | Visa.Vspill { src; slot } -> Visa.Vspill { src = use src; slot }
  | Visa.Vreload { dst; slot } -> Visa.Vreload { dst = def dst; slot }
  | Visa.Vload_scalars { dst; sources } -> Visa.Vload_scalars { dst = def dst; sources }
  | Visa.Vstore_scalars { src; targets } -> Visa.Vstore_scalars { src = use src; targets }
  | Visa.Sstmt _ -> instr

let key_fallback = function
  | Visa.Sstmt s -> Profile.Stmt s.Slp_ir.Stmt.id
  | _ -> Profile.Op "alloc"

(* [okeys.(idx)] is the profiling origin of input instruction [idx];
   every instruction this pass emits while processing input [idx] —
   the rewritten instruction itself, plus any spills and reloads its
   register needs force — inherits that origin, so spill traffic is
   charged to the statement or pack that caused it. *)
let allocate_block_keyed ~registers ~okeys instrs =
  if registers < 2 then invalid_arg "Regalloc.allocate_block: need at least 2 registers";
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let regs = Array.map instr_regs arr in
  (* Use positions per virtual register, for next-use queries and
     last-use freeing. *)
  let use_positions : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  for idx = n - 1 downto 0 do
    List.iter
      (fun v ->
        let tail = Option.value (Hashtbl.find_opt use_positions v) ~default:[] in
        Hashtbl.replace use_positions v (idx :: tail))
      (fst regs.(idx))
  done;
  let next_use v ~after =
    let rec go = function
      | [] -> max_int
      | p :: rest -> if p > after then p else go rest
    in
    go (Option.value (Hashtbl.find_opt use_positions v) ~default:[])
  in
  let last_use v =
    match Hashtbl.find_opt use_positions v with
    | Some l -> List.fold_left max (-1) l
    | None -> -1
  in
  (* Allocation state. *)
  let phys_owner = Array.make registers None in
  let loc : (int, [ `Phys of int | `Spilled ]) Hashtbl.t = Hashtbl.create 32 in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let next_slot = ref 0 in
  let spills = ref 0 and reloads = ref 0 and pressure = ref 0 and max_pressure = ref 0 in
  let out = ref [] in
  let kout = ref [] in
  let cur = ref (Profile.Op "alloc") in
  let emit i =
    out := i :: !out;
    kout := !cur :: !kout
  in
  let slot_for v =
    match Hashtbl.find_opt slot_of v with
    | Some s -> s
    | None ->
        let s = !next_slot in
        incr next_slot;
        Hashtbl.replace slot_of v s;
        s
  in
  let free_phys p = phys_owner.(p) <- None in
  let find_free () =
    let rec go p = if p >= registers then None else if phys_owner.(p) = None then Some p else go (p + 1) in
    go 0
  in
  (* Acquire a physical register at instruction [idx], never evicting a
     register in [protect].  Distances count uses *at* [idx] as well:
     a value consumed by the current instruction is the nearest
     possible use, never dead. *)
  let acquire ~idx ~protect =
    match find_free () with
    | Some p -> p
    | None ->
        (* Belady: evict the owner with the furthest next use. *)
        let victim = ref (-1) in
        let victim_dist = ref (-1) in
        for p = 0 to registers - 1 do
          if not (List.mem p protect) then
            match phys_owner.(p) with
            | Some v ->
                let d = next_use v ~after:(idx - 1) in
                if d > !victim_dist then begin
                  victim_dist := d;
                  victim := p
                end
            | None -> ()
        done;
        if !victim < 0 then
          E.fail ~pass:E.Regalloc E.Regalloc_failed
            "Regalloc: register pressure unsatisfiable";
        let p = !victim in
        (match phys_owner.(p) with
        | Some v ->
            (* Only values still needed must be saved. *)
            if next_use v ~after:(idx - 1) < max_int then begin
              emit (Visa.Vspill { src = p; slot = slot_for v });
              incr spills;
              Hashtbl.replace loc v `Spilled
            end
            else Hashtbl.remove loc v
        | None -> ());
        free_phys p;
        p
  in
  Array.iteri
    (fun idx instr ->
      cur :=
        (if idx < Array.length okeys then okeys.(idx) else key_fallback instr);
      match instr with
      | Visa.Sstmt _ -> emit instr
      | _ ->
          let uses, defined = regs.(idx) in
          (* Bring spilled sources back. *)
          let protect = ref [] in
          List.iter
            (fun v ->
              match Hashtbl.find_opt loc v with
              | Some (`Phys p) -> protect := p :: !protect
              | Some `Spilled ->
                  let p = acquire ~idx ~protect:!protect in
                  emit (Visa.Vreload { dst = p; slot = Hashtbl.find slot_of v });
                  incr reloads;
                  Hashtbl.replace loc v (`Phys p);
                  phys_owner.(p) <- Some v;
                  protect := p :: !protect
              | None ->
                  E.fail ~pass:E.Regalloc E.Regalloc_failed
                    "Regalloc: v%d used before definition" v)
            uses;
          let use v =
            match Hashtbl.find_opt loc v with
            | Some (`Phys p) -> p
            | _ -> assert false
          in
          (* Sources that die at this instruction free their registers
             before the destination allocates; the destination may then
             reuse a dying source's register — the VM computes all
             lanes before writing.  Evicting a live (non-dying) source
             is also value-safe: the spill copies it out before the
             instruction executes. *)
          let dying = List.filter (fun v -> last_use v = idx) uses in
          let def_phys = ref None in
          let def v =
            List.iter
              (fun dv ->
                match Hashtbl.find_opt loc dv with
                | Some (`Phys p) ->
                    Hashtbl.remove loc dv;
                    free_phys p
                | _ -> ())
              dying;
            let p = acquire ~idx ~protect:[] in
            Hashtbl.replace loc v (`Phys p);
            phys_owner.(p) <- Some v;
            def_phys := Some p;
            p
          in
          emit (rewrite instr ~use ~def);
          (* A destination that is never used dies immediately. *)
          (match (defined, !def_phys) with
          | Some v, Some p when last_use v < 0 ->
              Hashtbl.remove loc v;
              free_phys p
          | _ -> ());
          (* Track pressure. *)
          pressure := 0;
          Array.iter (fun o -> if o <> None then incr pressure) phys_owner;
          let spilled_live =
            Hashtbl.fold (fun _ l acc -> if l = `Spilled then acc + 1 else acc) loc 0
          in
          max_pressure := max !max_pressure (!pressure + spilled_live))
    arr;
  ( List.rev !out,
    Array.of_list (List.rev !kout),
    { spills = !spills; reloads = !reloads; max_pressure = !max_pressure } )

let allocate_block ~registers instrs =
  let instrs', _, stats = allocate_block_keyed ~registers ~okeys:[||] instrs in
  (instrs', stats)

(* [queue] pops one origin array per block in pre-order (the order
   [Lower.lower_with_origins] records them); [push] receives the
   transformed array in the same order. *)
let rec allocate_items ~registers ~queue ~push items =
  List.fold_left_map
    (fun acc item ->
      match item with
      | Visa.Block instrs ->
          let okeys =
            match !queue with
            | arr :: rest ->
                queue := rest;
                arr
            | [] -> [||]
          in
          let instrs', okeys', st =
            allocate_block_keyed ~registers ~okeys instrs
          in
          push okeys';
          (add_stats acc st, Visa.Block instrs')
      | Visa.Loop l ->
          let nested, body = allocate_items ~registers ~queue ~push l.Visa.body in
          (add_stats acc nested, Visa.Loop { l with Visa.body }))
    zero_stats items

let program_with_origins ~registers ~origins (p : Visa.program) =
  let queue = ref origins in
  let out = ref [] in
  let stats, body =
    allocate_items ~registers ~queue
      ~push:(fun o -> out := o :: !out)
      p.Visa.body
  in
  ({ p with Visa.body }, stats, List.rev !out)
