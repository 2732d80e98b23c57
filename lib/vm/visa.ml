open Slp_ir

type vreg = int

type lane_src = Mem of Operand.t | Reg of string | Imm of float
type lane_dst = To_mem of Operand.t | To_reg of string

type instr =
  | Vload of { dst : vreg; elems : Operand.t list }
  | Vstore of { src : vreg; elems : Operand.t list }
  | Vgather of { dst : vreg; srcs : lane_src list }
  | Vunpack of { src : vreg; dsts : lane_dst option list }
  | Vbroadcast of { dst : vreg; src : lane_src; lanes : int }
  | Vpermute of { dst : vreg; src : vreg; sel : int array }
  | Vshuffle2 of { dst : vreg; a : vreg; b : vreg; sel : (int * int) array }
  | Vbin of { dst : vreg; op : Types.binop; a : vreg; b : vreg }
  | Vun of { dst : vreg; op : Types.unop; a : vreg }
  | Vspill of { src : vreg; slot : int }
  | Vreload of { dst : vreg; slot : int }
  | Vload_scalars of { dst : vreg; sources : string list }
  | Vstore_scalars of { src : vreg; targets : string list }
  | Sstmt of Stmt.t

type vloop = { index : string; lo : Affine.t; hi : Affine.t; step : int; body : item list }

and item = Block of instr list | Loop of vloop

type program = { name : string; env : Env.t; setup : item list; body : item list }

let rec of_items items =
  List.map
    (function
      | Program.Stmts b -> Block (List.map (fun s -> Sstmt s) b.Block.stmts)
      | Program.Loop l ->
          Loop
            {
              index = l.Program.index;
              lo = l.Program.lo;
              hi = l.Program.hi;
              step = l.Program.step;
              body = of_items l.Program.body;
            })
    items

let of_program (p : Program.t) =
  { name = p.Program.name; env = p.Program.env; setup = []; body = of_items p.Program.body }

type loc = Elem of string * Affine.t list | Scalar of string | Vreg of vreg | Slot of int

(* An array is one location to the walk: two subscripts may name one
   element, and one subscript another element in each inner iteration. *)
module Locs = Set.Make (struct
  type t = loc

  let compare a b =
    match (a, b) with Elem (x, _), Elem (y, _) -> String.compare x y | _ -> compare a b
end)

(* The helpers take [f] as an argument rather than closing over it, so
   a fold allocates no closure: only the locations it passes. *)
let operand f ~write acc = function
  | Operand.Elem (a, idxs) -> f acc ~write (Elem (a, idxs))
  | Operand.Scalar x -> f acc ~write (Scalar x)
  | Operand.Const _ -> acc

let rec operands f ~write acc = function
  | [] -> acc
  | op :: ops -> operands f ~write (operand f ~write acc op) ops

let rec scalars f ~write acc = function
  | [] -> acc
  | x :: xs -> scalars f ~write (f acc ~write (Scalar x)) xs

let lane f acc = function
  | Mem op -> operand f ~write:false acc op
  | Reg x -> f acc ~write:false (Scalar x)
  | Imm _ -> acc

let rec lanes f acc = function [] -> acc | src :: srcs -> lanes f (lane f acc src) srcs

let rec unpacked f acc = function
  | [] -> acc
  | Some (To_mem op) :: rest -> unpacked f (operand f ~write:true acc op) rest
  | Some (To_reg x) :: rest -> unpacked f (f acc ~write:true (Scalar x)) rest
  | None :: rest -> unpacked f acc rest

let rec leaves f acc = function
  | Expr.Leaf op -> operand f ~write:false acc op
  | Expr.Un (_, e) -> leaves f acc e
  | Expr.Bin (_, l, r) -> leaves f (leaves f acc l) r

let reg f ~write acc r = f acc ~write (Vreg r)

let fold_locs f acc instr =
  match instr with
  | Vload { dst; elems } -> reg f ~write:true (operands f ~write:false acc elems) dst
  | Vstore { src; elems } -> operands f ~write:true (reg f ~write:false acc src) elems
  | Vgather { dst; srcs } -> reg f ~write:true (lanes f acc srcs) dst
  | Vunpack { src; dsts } -> unpacked f (reg f ~write:false acc src) dsts
  | Vbroadcast { dst; src; _ } -> reg f ~write:true (lane f acc src) dst
  | Vpermute { dst; src = a; _ } | Vun { dst; a; _ } ->
      reg f ~write:true (reg f ~write:false acc a) dst
  | Vshuffle2 { dst; a; b; _ } | Vbin { dst; a; b; _ } ->
      reg f ~write:true (reg f ~write:false (reg f ~write:false acc a) b) dst
  | Vspill { src; slot } -> f (reg f ~write:false acc src) ~write:true (Slot slot)
  | Vreload { dst; slot } -> reg f ~write:true (f acc ~write:false (Slot slot)) dst
  | Vload_scalars { dst; sources } -> reg f ~write:true (scalars f ~write:false acc sources) dst
  | Vstore_scalars { src; targets } -> scalars f ~write:true (reg f ~write:false acc src) targets
  | Sstmt s -> operand f ~write:true (leaves f acc s.Stmt.rhs) s.Stmt.lhs

type first_reads = { early : loc list; written : Locs.t }

let first_reads items =
  let early = ref [] and seen = ref Locs.empty and written = ref Locs.empty in
  let access ~bound must ~write loc =
    if write then begin
      written := Locs.add loc !written;
      match loc with Elem _ -> must | Scalar _ | Vreg _ | Slot _ -> Locs.add loc must
    end
    else begin
      (match loc with
      | Scalar x when List.mem x bound -> ()
      | _ ->
          if not (Locs.mem loc must || Locs.mem loc !seen) then begin
            seen := Locs.add loc !seen;
            early := loc :: !early
          end);
      must
    end
  in
  (* [must]: the locations certainly written so far in the iteration. *)
  let rec walk ~bound must items =
    List.fold_left
      (fun must -> function
        | Block instrs -> List.fold_left (fold_locs (access ~bound)) must instrs
        | Loop l -> (
            let inner = walk ~bound:(l.index :: bound) must l.body in
            match (Affine.to_const l.lo, Affine.to_const l.hi) with
            | Some lo, Some hi when hi > lo -> inner
            | _ -> must))
      must items
  in
  ignore (walk ~bound:[] Locs.empty items : Locs.t);
  { early = List.rev !early; written = !written }

let rec fold_instrs f acc items =
  List.fold_left
    (fun acc -> function
      | Block instrs -> List.fold_left f acc instrs
      | Loop l -> fold_instrs f acc l.body)
    acc items

let instr_count p = fold_instrs (fun n _ -> n + 1) 0 p.body

let pp_lane_src ppf = function
  | Mem op -> Operand.pp ppf op
  | Reg v -> Format.fprintf ppf "%%%s" v
  | Imm f -> Format.fprintf ppf "#%g" f

let pp_lane_dst ppf = function
  | To_mem op -> Operand.pp ppf op
  | To_reg v -> Format.fprintf ppf "%%%s" v

let pp_lanes pp_one ppf lanes =
  Format.fprintf ppf "[";
  List.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ", ";
      pp_one ppf x)
    lanes;
  Format.fprintf ppf "]"

let pp_instr ppf = function
  | Vload { dst; elems } ->
      Format.fprintf ppf "v%d <- vload %a" dst (pp_lanes Operand.pp) elems
  | Vstore { src; elems } ->
      Format.fprintf ppf "vstore %a <- v%d" (pp_lanes Operand.pp) elems src
  | Vgather { dst; srcs } ->
      Format.fprintf ppf "v%d <- vgather %a" dst (pp_lanes pp_lane_src) srcs
  | Vunpack { src; dsts } ->
      Format.fprintf ppf "vunpack v%d -> %a" src
        (pp_lanes (fun ppf -> function
           | None -> Format.fprintf ppf "_"
           | Some d -> pp_lane_dst ppf d))
        dsts
  | Vbroadcast { dst; src; lanes } ->
      Format.fprintf ppf "v%d <- vbroadcast %a x%d" dst pp_lane_src src lanes
  | Vpermute { dst; src; sel } ->
      Format.fprintf ppf "v%d <- vpermute v%d [%s]" dst src
        (String.concat "," (Array.to_list (Array.map string_of_int sel)))
  | Vshuffle2 { dst; a; b; sel } ->
      Format.fprintf ppf "v%d <- vshuffle2 v%d v%d [%s]" dst a b
        (String.concat ","
           (Array.to_list (Array.map (fun (s, l) -> Printf.sprintf "%d.%d" s l) sel)))
  | Vbin { dst; op; a; b } ->
      Format.fprintf ppf "v%d <- v%d %a v%d" dst a Types.pp_binop op b
  | Vun { dst; op; a } -> Format.fprintf ppf "v%d <- %a v%d" dst Types.pp_unop op a
  | Vspill { src; slot } -> Format.fprintf ppf "vspill [slot %d] <- v%d" slot src
  | Vreload { dst; slot } -> Format.fprintf ppf "v%d <- vreload [slot %d]" dst slot
  | Vload_scalars { dst; sources } ->
      Format.fprintf ppf "v%d <- vload.s [%s]" dst (String.concat ", " sources)
  | Vstore_scalars { src; targets } ->
      Format.fprintf ppf "vstore.s [%s] <- v%d" (String.concat ", " targets) src
  | Sstmt s -> Stmt.pp ppf s

let rec pp_items ppf items =
  List.iter
    (function
      | Block instrs ->
          List.iter (fun i -> Format.fprintf ppf "%a@," pp_instr i) instrs
      | Loop l ->
          Format.fprintf ppf "@[<v 2>for %s = %a to %a step %d {@," l.index Affine.pp
            l.lo Affine.pp l.hi l.step;
          pp_items ppf l.body;
          Format.fprintf ppf "@]}@,")
    items

let pp_program ppf p =
  Format.fprintf ppf "@[<v>vprogram %s@," p.name;
  if p.setup <> [] then begin
    Format.fprintf ppf "setup:@,";
    pp_items ppf p.setup
  end;
  Format.fprintf ppf "body:@,";
  pp_items ppf p.body;
  Format.fprintf ppf "@]"
