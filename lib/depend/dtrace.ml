(* Dynamic soundness oracle for the static dependence analysis.

   Replays a program's memory accesses — addresses only; control flow
   and subscripts are data-independent, so no float values are needed
   — and checks two static claims post-hoc:

   - block soundness: two statements of one block instance never touch
     the same location in a conflicting way unless {!Depend.block_dep_pairs}
     reports an edge between them;
   - parallel claim: when the verdict passed in says [Parallel], no
     array address is written under one value of the partitioned index
     and touched under another, recognised reduction scalars are
     touched only by their own update statements, and every other
     written scalar is written before read within each partition
     value.  The verdict comes from the caller because this library
     cannot see Visa, over which [Slp_vm.Parcheck.analyze] computes
     it.

   Violations are reported as strings naming the statements and the
   location, so a failing kernel is diagnosable from the message
   alone. *)

open Slp_ir

type report = { events : int; violations : string list }

(* Body tree with blocks numbered in [Program.blocks] /
   [Depend.blocks_with_box] order, so one walk visits each block
   instance with its static ordinal at hand. *)
type aitem = Ablock of int * Block.t | Aloop of Program.loop * aitem list

let annotate body =
  let counter = ref 0 in
  let rec go items =
    List.map
      (function
        | Program.Stmts b ->
            let ord = !counter in
            incr counter;
            Ablock (ord, b)
        | Program.Loop l -> Aloop (l, go l.Program.body))
      items
  in
  go body

(* One access of one statement instance. *)
type loc = Arr of string * int | Sca of string

let loc_string = function
  | Arr (base, addr) -> Printf.sprintf "%s@%d" base addr
  | Sca name -> name

let flat_addr (env : Env.t) base idxs lookup =
  match Env.array_info env base with
  | None -> invalid_arg ("Dtrace: undeclared array " ^ base)
  | Some { Env.dims; _ } ->
      List.fold_left2
        (fun acc ix dim -> (acc * dim) + Affine.eval ix lookup)
        0 idxs dims

let stmt_locs env lookup (s : Stmt.t) =
  let of_op op =
    match op with
    | Operand.Elem (base, idxs) -> Some (Arr (base, flat_addr env base idxs lookup))
    | Operand.Scalar v -> Some (Sca v)
    | Operand.Const _ -> None
  in
  let reads = List.filter_map of_op (Expr.leaves s.Stmt.rhs) in
  let writes = Option.to_list (of_op s.Stmt.lhs) in
  (reads, writes)

(* -- check 1: block-instance soundness ------------------------------ *)

(* Per block ordinal: the statically reported dependence pairs, as an
   unordered membership set. *)
let static_deps prog =
  List.map
    (fun (block, box) ->
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (a, b) ->
          Hashtbl.replace tbl (a, b) ();
          Hashtbl.replace tbl (b, a) ())
        (Depend.block_dep_pairs ~box block);
      tbl)
    (Depend.blocks_with_box prog)
  |> Array.of_list

let conflicting l1 w1 l2 w2 = l1 = l2 && (w1 || w2)

(* A block instance executes contiguously, so buffer its accesses and
   check pairwise; instances are a handful of statements. *)
let check_instance deps buf violations =
  let arr = Array.of_list (List.rev buf) in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    let si, li, wi = arr.(i) in
    for j = i + 1 to n - 1 do
      let sj, lj, wj = arr.(j) in
      if si <> sj && conflicting li wi lj wj && not (Hashtbl.mem deps (si, sj))
      then
        violations :=
          Printf.sprintf
            "block soundness: stmts %d and %d both touch %s (write) in one \
             instance but are statically independent"
            si sj (loc_string li)
          :: !violations
    done
  done

(* -- check 2: parallel-claim soundness ------------------------------ *)

type par_state = {
  pvar : string;
  reductions : (string, (int, unit) Hashtbl.t) Hashtbl.t;
      (* reduction scalar -> allowed update stmt ids *)
  wscalars : (string, unit) Hashtbl.t;  (* written non-reduction scalars *)
  addr_tbl : (string * int, int * bool * int option) Hashtbl.t;
      (* (base, addr) -> (first pval, touched by another pval, first writer pval) *)
  written_here : (string * int, unit) Hashtbl.t;
      (* (scalar, pval) -> written already under this pval *)
}

let par_state_of ~verdict prog =
  match verdict with
  | Depend.Serial _ -> None
  | Depend.Parallel { reductions } -> (
      match prog.Program.body with
      | [ Program.Loop l ] ->
          let rtbl = Hashtbl.create 4 in
          List.iter (fun (s, _) -> Hashtbl.replace rtbl s (Hashtbl.create 4)) reductions;
          let wscalars = Hashtbl.create 8 in
          let rec scan items =
            List.iter
              (function
                | Program.Stmts b ->
                    List.iter
                      (fun (st : Stmt.t) ->
                        match st.Stmt.lhs with
                        | Operand.Scalar v -> (
                            match Hashtbl.find_opt rtbl v with
                            | Some ids -> Hashtbl.replace ids st.Stmt.id ()
                            | None -> Hashtbl.replace wscalars v ())
                        | Operand.Const _ | Operand.Elem _ -> ())
                      b.Block.stmts
                | Program.Loop l -> scan l.Program.body)
              items
          in
          scan l.Program.body;
          Some
            {
              pvar = l.Program.index;
              reductions = rtbl;
              wscalars;
              addr_tbl = Hashtbl.create 1024;
              written_here = Hashtbl.create 64;
            }
      | _ -> None)

let par_check ps ~pval ~stmt ~write loc violations =
  match loc with
  | Arr (base, addr) -> (
      let key = (base, addr) in
      match Hashtbl.find_opt ps.addr_tbl key with
      | None -> Hashtbl.replace ps.addr_tbl key (pval, false, if write then Some pval else None)
      | Some (first, other, writer) ->
          let foreign = pval <> first || other in
          if write && foreign then
            violations :=
              Printf.sprintf
                "parallel claim: %s written by stmt %d under %s=%d after a \
                 touch under another partition value"
                (loc_string loc) stmt ps.pvar pval
              :: !violations
          else begin
            match writer with
            | Some w when w <> pval ->
                violations :=
                  Printf.sprintf
                    "parallel claim: %s touched by stmt %d under %s=%d but \
                     written under %s=%d"
                    (loc_string loc) stmt ps.pvar pval ps.pvar w
                  :: !violations
            | _ -> ()
          end;
          Hashtbl.replace ps.addr_tbl key
            ( first,
              other || pval <> first,
              match writer with Some _ -> writer | None -> if write then Some pval else None ))
  | Sca name -> (
      match Hashtbl.find_opt ps.reductions name with
      | Some ids ->
          if not (Hashtbl.mem ids stmt) then
            violations :=
              Printf.sprintf
                "parallel claim: reduction scalar %s touched by non-update \
                 stmt %d"
                name stmt
              :: !violations
      | None ->
          if Hashtbl.mem ps.wscalars name then
            if write then Hashtbl.replace ps.written_here (name, pval) ()
            else if not (Hashtbl.mem ps.written_here (name, pval)) then
              violations :=
                Printf.sprintf
                  "parallel claim: scalar %s read by stmt %d under %s=%d \
                   before any write in that partition"
                  name stmt ps.pvar pval
                :: !violations)

(* -- the walk ------------------------------------------------------- *)

let check ~verdict (prog : Program.t) =
  let deps = static_deps prog in
  let ps = par_state_of ~verdict prog in
  let violations = ref [] in
  let events = ref 0 in
  let env = prog.Program.env in
  let idx_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let lookup v =
    match Hashtbl.find_opt idx_tbl v with
    | Some x -> x
    | None -> invalid_arg ("Dtrace: unbound index " ^ v)
  in
  let rec run ~pval items =
    List.iter
      (function
        | Ablock (ord, b) ->
            let buf = ref [] in
            List.iter
              (fun (s : Stmt.t) ->
                let reads, writes = stmt_locs env lookup s in
                List.iter
                  (fun loc ->
                    incr events;
                    buf := (s.Stmt.id, loc, false) :: !buf;
                    Option.iter
                      (fun ps ->
                        match pval with
                        | Some pval ->
                            par_check ps ~pval ~stmt:s.Stmt.id ~write:false loc
                              violations
                        | None -> ())
                      ps)
                  reads;
                List.iter
                  (fun loc ->
                    incr events;
                    buf := (s.Stmt.id, loc, true) :: !buf;
                    Option.iter
                      (fun ps ->
                        match pval with
                        | Some pval ->
                            par_check ps ~pval ~stmt:s.Stmt.id ~write:true loc
                              violations
                        | None -> ())
                      ps)
                  writes)
              b.Block.stmts;
            check_instance deps.(ord) !buf violations
        | Aloop (l, body) ->
            let lo = Affine.eval l.Program.lo lookup in
            let hi = Affine.eval l.Program.hi lookup in
            let v = ref lo in
            while !v < hi do
              Hashtbl.replace idx_tbl l.Program.index !v;
              let pval = if pval = None then Some !v else pval in
              run ~pval body;
              v := !v + l.Program.step
            done;
            Hashtbl.remove idx_tbl l.Program.index)
      items
  in
  run ~pval:None (annotate prog.Program.body);
  { events = !events; violations = List.rev !violations }
