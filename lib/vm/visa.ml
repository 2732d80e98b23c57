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

let rec items_instr_count items =
  List.fold_left
    (fun acc item ->
      match item with
      | Block instrs -> acc + List.length instrs
      | Loop l -> acc + items_instr_count l.body)
    0 items

let instr_count p = items_instr_count p.body

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
