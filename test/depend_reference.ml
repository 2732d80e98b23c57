(* The dependence analysis as it stood before its block-scale access
   tables: a verbatim copy of lib/depend/depend.ml, kept as the oracle
   of test_depend.ml's equivalence property.  Do not edit it to follow
   the library; it is the behaviour the library must keep. *)

(* Exact integer dependence analysis over the IR's affine subscripts.

   Subscripts are affine in the enclosing loop indices (guaranteed by
   [Program.validate]) and loop bounds with compile-time constant
   values give a constant iteration box, so whether two subscript
   expressions can name the same element is a linear integer
   feasibility question.  Each subscript dimension contributes one
   equation [f - g = 0]; the solver runs a ZIV test (no variables
   left), a GCD divisibility test, and a Banerjee-style bound test
   over the normalised box, and decides pairs of accesses:

   - same-instance ("loop-independent"): all enclosing indices shared
     between the two accesses;
   - cross-instance on a carrier loop: the carrier index differs by a
     nonzero delta, loops outside the carrier are pinned equal, loops
     inside it (and loops not common to both accesses) are renamed so
     each side ranges freely.

   Per-dimension decoupling is conservative in exactly one direction:
   a pair is reported independent only when some dimension has no
   solution at all (then no simultaneous solution exists), while
   "dependent" may be a rectangle-relaxation artifact.  Symbolic
   bounds skip the Banerjee test and fall back to "assume dependent"
   with a stable reason code.  The dynamic tracer ({!Dtrace}) checks
   the independent verdicts against concrete execution. *)

open Slp_ir

(* -- iteration boxes ------------------------------------------------ *)

module Box = struct
  type range = Known of { lo : int; hi : int; step : int } | Unknown

  type t = (string * range) list
  (* innermost binding first; lookups take the closest one *)

  let empty = []
  let add t var range = (var, range) :: t

  let of_bounds ~lo ~hi ~step =
    match (Affine.to_const lo, Affine.to_const hi) with
    | Some lo, Some hi -> Known { lo; hi; step }
    | _ -> Unknown

  let trip = function
    | Known { lo; hi; step } ->
        Some (if hi <= lo then 0 else ((hi - lo) + step - 1) / step)
    | Unknown -> None
end

(* The range of [var] in [box]; [Unknown] when no enclosing loop binds
   it.  Kept outside [Box] so that the interface's [Box] signature lists
   the whole structure: with this function hidden inside it instead,
   the build compiled this file's callers differently and [of_program]
   allocated about 3% more on 512-bit programs. *)
let box_range (box : Box.t) var = Option.value (List.assoc_opt var box) ~default:Box.Unknown

(* -- the per-dimension equation solver ------------------------------ *)

(* One linear term of the dependence equation: [coeff] times a
   variable ranging over [iv] (inclusive integer interval, [Free] when
   the range is symbolic). *)
type interval = Ival of { lo : int; hi : int } | Free
type term = { coeff : int; iv : interval }

(* Equation [sum terms + const = 0].  [Infeasible] marks an equation
   over an empty iteration space (zero-trip loop): no instances, hence
   no dependence. *)
type eqn = Eqn of { terms : term list; const : int } | Infeasible

type sol =
  | Unsolvable
  | Solvable of { exact : bool; reason : string option }
      (** [exact = false] means the tests were inconclusive and the
          verdict is the conservative fallback; [reason] says why
          (["symbolic-bounds"] or ["banerjee-inconclusive"]). *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Add [coeff * v] to the equation where [v] ranges over [range],
   normalising [v = lo + step*t] so the remaining term has a [0..trip)
   interval.  Zero-trip ranges make the whole equation infeasible. *)
let add_term eqn ~coeff ~(range : Box.range) =
  match eqn with
  | Infeasible -> Infeasible
  | Eqn { terms; const } -> (
      if coeff = 0 then eqn
      else
        match range with
        | Box.Unknown -> Eqn { terms = { coeff; iv = Free } :: terms; const }
        | Box.Known { lo; hi; step } -> (
            match Box.trip (Box.Known { lo; hi; step }) with
            | Some 0 -> Infeasible
            | Some 1 -> Eqn { terms; const = const + (coeff * lo) }
            | Some trip ->
                Eqn
                  {
                    terms =
                      { coeff = coeff * step; iv = Ival { lo = 0; hi = trip - 1 } }
                      :: terms;
                    const = const + (coeff * lo);
                  }
            | None -> assert false))

let add_const eqn k =
  match eqn with
  | Infeasible -> Infeasible
  | Eqn e -> Eqn { e with const = e.const + k }

(* Add a term whose variable ranges over an explicit interval (used
   for the carrier delta, already in normalised iteration units). *)
let add_interval_term eqn ~coeff ~lo ~hi =
  match eqn with
  | Infeasible -> Infeasible
  | Eqn { terms; const } ->
      if lo > hi then Infeasible
      else if coeff = 0 then eqn
      else if lo = hi then Eqn { terms; const = const + (coeff * lo) }
      else Eqn { terms = { coeff; iv = Ival { lo; hi } } :: terms; const }

let empty_eqn = Eqn { terms = []; const = 0 }

let solve = function
  | Infeasible -> Unsolvable
  | Eqn { terms; const } -> (
      match terms with
      | [] ->
          (* ZIV: both sides constant. *)
          if const = 0 then Solvable { exact = true; reason = None }
          else Unsolvable
      | _ ->
          let g = List.fold_left (fun g t -> gcd g (abs t.coeff)) 0 terms in
          if g > 0 && const mod g <> 0 then Unsolvable
          else if List.exists (fun t -> t.iv = Free) terms then
            Solvable { exact = false; reason = Some "symbolic-bounds" }
          else begin
            (* Banerjee bounds over the rectangular box. *)
            let lo_sum, hi_sum =
              List.fold_left
                (fun (mn, mx) t ->
                  match t.iv with
                  | Free -> assert false
                  | Ival { lo; hi } ->
                      if t.coeff > 0 then
                        (mn + (t.coeff * lo), mx + (t.coeff * hi))
                      else (mn + (t.coeff * hi), mx + (t.coeff * lo)))
                (0, 0) terms
            in
            if -const < lo_sum || -const > hi_sum then Unsolvable
            else
              match terms with
              | [ _ ] ->
                  (* Single variable: GCD gives integrality, Banerjee
                     gives the range, so the solution is exact. *)
                  Solvable { exact = true; reason = None }
              | _ -> Solvable { exact = false; reason = Some "banerjee-inconclusive" }
          end)

(* -- accesses ------------------------------------------------------- *)

type access = {
  stmt : int;  (** id of the statement performing the access *)
  base : string;
  idxs : Affine.t list;
  write : bool;
  box : Box.t;  (** enclosing loop ranges at the access site *)
}

let union_vars f g =
  List.sort_uniq String.compare (Affine.vars f @ Affine.vars g)

(* Same-instance equation for one dimension: every variable is shared
   between the two subscripts (coefficients subtract). *)
let same_instance_eqn_raw ~box f g =
  let eqn = empty_eqn in
  let eqn = add_const eqn (Affine.const_part f - Affine.const_part g) in
  List.fold_left
    (fun eqn v ->
      add_term eqn ~coeff:(Affine.coeff f v - Affine.coeff g v)
        ~range:(box_range box v))
    eqn (union_vars f g)

let same_instance_eqn ~box f g = solve (same_instance_eqn_raw ~box f g)

(* Every dimension of a pair of accesses solved once, in order: [None]
   as soon as one dimension has no solution (then the accesses never
   meet), otherwise the pair's exactness with the reason of its first
   inexact dimension. *)
let solve_dims solve_dim a b =
  let rec go exact reason fs gs =
    match (fs, gs) with
    | f :: fs, g :: gs -> (
        match solve_dim f g with
        | Unsolvable -> None
        | Solvable { exact = true; _ } -> go exact reason fs gs
        | Solvable { exact = false; reason = r } ->
            go false (if reason = None then r else reason) fs gs)
    | _ -> Some (exact, reason)
  in
  go true None a.idxs b.idxs

(* Same base, at least one write, and every subscript dimension
   simultaneously solvable — the precise replacement for
   [Operand.may_alias] inside a block — with the exactness of that
   answer. *)
let same_instance ~box a b =
  if
    String.equal a.base b.base
    && (a.write || b.write)
    && List.length a.idxs = List.length b.idxs
  then solve_dims (same_instance_eqn ~box) a b
  else None

(* Cross-instance equation for one dimension, directed: access [a]
   executes in an earlier iteration of [carrier] than access [b]
   (positive delta).  Loops in [outer] are pinned to the same
   iteration on both sides; every other variable is renamed so each
   side ranges independently over its own box. *)
let cross_eqn ~carrier ~carrier_range ~carrier_step ~outer f fbox g gbox =
  let eqn = empty_eqn in
  let eqn = add_const eqn (Affine.const_part f - Affine.const_part g) in
  let a = Affine.coeff f carrier and b = Affine.coeff g carrier in
  (* f side: carrier value lo + step*t; g side: lo + step*(t + d),
     d >= 1.  Contribution: step*(a-b)*t - step*b*d (plus (a-b)*lo
     folded by the t-term normalisation below). *)
  let eqn =
    match carrier_range with
    | Box.Unknown ->
        (* t free, d >= 1 free: keep d's lower bound by substituting
           d = 1 + e with e unconstrained. *)
        let eqn = add_term eqn ~coeff:(a - b) ~range:Box.Unknown in
        let eqn = add_const eqn (-b * carrier_step) in
        add_term eqn ~coeff:(-b * carrier_step) ~range:Box.Unknown
    | Box.Known { lo; hi; step } -> (
        match Box.trip (Box.Known { lo; hi; step }) with
        | Some trip when trip >= 2 ->
            let eqn = add_const eqn ((a - b) * lo) in
            let eqn =
              add_interval_term eqn ~coeff:((a - b) * step) ~lo:0 ~hi:(trip - 2)
            in
            add_interval_term eqn ~coeff:(-b * step) ~lo:1 ~hi:(trip - 1)
        | Some _ -> Infeasible (* fewer than two iterations: no pair *)
        | None -> assert false)
  in
  (* Shared outer loops: deltas pinned to zero. *)
  let eqn =
    List.fold_left
      (fun eqn v ->
        add_term eqn ~coeff:(Affine.coeff f v - Affine.coeff g v)
          ~range:(box_range fbox v))
      eqn outer
  in
  (* Everything else: renamed, one term per side. *)
  let renamed v = (not (String.equal v carrier)) && not (List.mem v outer) in
  let eqn =
    List.fold_left
      (fun eqn v ->
        if renamed v then add_term eqn ~coeff:(Affine.coeff f v) ~range:(box_range fbox v)
        else eqn)
      eqn (Affine.vars f)
  in
  List.fold_left
    (fun eqn v ->
      if renamed v then add_term eqn ~coeff:(-Affine.coeff g v) ~range:(box_range gbox v)
      else eqn)
    eqn (Affine.vars g)

(* Directed test: can [b]'s instance, at a strictly later [carrier]
   iteration than [a]'s, touch the same element?  All dimensions must
   be simultaneously solvable with the same positive delta; the
   rectangle decoupling keeps only the delta's sign consistent across
   dimensions, which is the sound direction.  [Some] carries the
   answer's exactness, as {!solve_dims} returns it.  Callers check that
   the accesses share a base and a rank. *)
let carried_from ~carrier ~outer a b =
  let carrier_range = box_range a.box carrier in
  solve_dims
    (fun f g ->
      solve (cross_eqn ~carrier ~carrier_range ~carrier_step:1 ~outer f a.box g b.box))
    a b

(* Undirected cross-instance conflict on [pvar] (chunk independence):
   conflict in either direction, no outer shared loops. *)
let cross_instance_conflict ~pvar a b =
  String.equal a.base b.base
  && (a.write || b.write)
  && List.length a.idxs = List.length b.idxs
  && (Option.is_some (carried_from ~carrier:pvar ~outer:[] a b)
     || Option.is_some (carried_from ~carrier:pvar ~outer:[] b a))

(* Note: [carrier_step] is folded into the box normalisation (the
   range's own step), so callers pass the loop's range and step 1 for
   the delta units — deltas count iterations, not index values. *)

(* -- statement-level dependence within a block ---------------------- *)

let stmt_accesses ~box (s : Stmt.t) =
  let of_op ~write op =
    match op with
    | Operand.Elem (base, idxs) ->
        Some { stmt = s.Stmt.id; base; idxs; write; box }
    | Operand.Const _ | Operand.Scalar _ -> None
  in
  let writes = Option.to_list (of_op ~write:true s.Stmt.lhs) in
  let reads = List.filter_map (of_op ~write:false) (Expr.leaves s.Stmt.rhs) in
  (writes, reads)

let scalar_def (s : Stmt.t) =
  match s.Stmt.lhs with
  | Operand.Scalar v -> Some v
  | Operand.Const _ | Operand.Elem _ -> None

let scalar_reads (s : Stmt.t) =
  List.filter_map
    (function
      | Operand.Scalar v -> Some v
      | Operand.Const _ | Operand.Elem _ -> None)
    (Expr.leaves s.Stmt.rhs)

(* Precise replacement for [Block.dep_pairs]: scalar dependences stay
   name-based (a scalar is one storage location), array dependences
   use the same-instance solver so offset subscripts with no common
   solution inside the box stop blocking packing. *)
let stmt_depends ~box earlier later =
  let scalar_dep =
    (match scalar_def earlier with
    | Some v ->
        List.mem v (scalar_reads later)
        || scalar_def later = Some v
    | None -> false)
    ||
    match scalar_def later with
    | Some v -> List.mem v (scalar_reads earlier)
    | None -> false
  in
  scalar_dep
  ||
  let we, re = stmt_accesses ~box earlier in
  let wl, rl = stmt_accesses ~box later in
  let pair_conflicts xs ys =
    List.exists
      (fun x -> List.exists (fun y -> Option.is_some (same_instance ~box x y)) ys)
      xs
  in
  pair_conflicts we wl || pair_conflicts we rl || pair_conflicts re wl

let block_dep_pairs ~box (block : Block.t) =
  let rec go acc = function
    | [] -> List.rev acc
    | (s : Stmt.t) :: rest ->
        let acc =
          List.fold_left
            (fun acc (s' : Stmt.t) ->
              if stmt_depends ~box s s' then (s.Stmt.id, s'.Stmt.id) :: acc
              else acc)
            acc rest
        in
        go acc rest
  in
  go [] block.Block.stmts

(* -- scalar reduction recognition ----------------------------------- *)

(* Computed over Visa code by [Slp_vm.Parcheck.analyze]; declared here
   so that [Dtrace] can check a verdict without seeing Visa. *)
type verdict =
  | Serial of string  (** stable reason code *)
  | Parallel of { reductions : (string * Types.binop) list }

let associative = function
  | Types.Add | Types.Mul | Types.Min | Types.Max -> true
  | Types.Sub | Types.Div -> false

let identity_of = function
  | Types.Add -> 0.0
  | Types.Mul -> 1.0
  | Types.Min -> Float.infinity
  | Types.Max -> Float.neg_infinity
  | Types.Sub | Types.Div -> invalid_arg "Depend.identity_of: not a reduction op"

let scalar_reads_of_expr e =
  List.filter_map
    (function
      | Operand.Scalar v -> Some v
      | Operand.Const _ | Operand.Elem _ -> None)
    (Expr.leaves e)

(* [rhs = Bin (op, Leaf (Scalar s), e)] or the mirrored form, with [s]
   not appearing in [e]. *)
let reduction_update ~scalar rhs =
  match rhs with
  | Expr.Bin (op, Expr.Leaf (Operand.Scalar v), e) when String.equal v scalar ->
      if associative op && not (List.mem scalar (scalar_reads_of_expr e)) then
        Some op
      else None
  | Expr.Bin (op, e, Expr.Leaf (Operand.Scalar v)) when String.equal v scalar ->
      if associative op && not (List.mem scalar (scalar_reads_of_expr e)) then
        Some op
      else None
  | _ -> None

(* Every statement of a loop body, in program order: the dependence
   graph's reduction report reads the updates of each outermost loop. *)
let rec stmts_of_items items =
  List.concat_map
    (function
      | Program.Stmts b -> b.Block.stmts
      | Program.Loop l -> stmts_of_items l.Program.body)
    items

(* Scalars written as [s = s (+|*|min|max) e] chains — every write is
   such an update with one shared operator and [s] is read nowhere
   else in the body.  (An unrolled reduction contributes several
   updates; all must agree.) *)
let reductions_of_stmts stmts =
  let written =
    List.filter_map scalar_def stmts |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun s ->
      let writes = List.filter (fun st -> scalar_def st = Some s) stmts in
      let ops = List.map (fun st -> reduction_update ~scalar:s st.Stmt.rhs) writes in
      match ops with
      | [] -> None
      | Some op :: rest
        when List.for_all (function Some o -> o = op | None -> false) rest ->
          (* read nowhere outside its own updates *)
          let foreign_read =
            List.exists
              (fun st ->
                scalar_def st <> Some s && List.mem s (scalar_reads st))
              stmts
          in
          if foreign_read then None else Some (s, op)
      | _ -> None)
    written

let reductions_of_items items = reductions_of_stmts (stmts_of_items items)

(* -- the dependence graph ------------------------------------------- *)

type direction = Lt | Eq | Gt | Any
type kind = Flow | Anti | Output

type edge = {
  src : int;
  dst : int;
  array : string;
  ekind : kind;
  carrier : string option;  (** [None]: loop-independent *)
  distance : int option;  (** carrier iterations, when exactly known *)
  directions : (string * direction) list;  (** per enclosing loop, outermost first *)
  exact : bool;
  reason : string option;  (** why conservative, when [exact = false] *)
}

type graph = {
  program : string;
  edges : edge list;
  reductions : (string * Types.binop * int list) list;
      (** scalar, operator, update statement ids — per outermost loop *)
}

let kind_of ~src_write ~dst_write =
  if src_write && dst_write then Output else if src_write then Flow else Anti

(* Exact distance for the strong-SIV shape: in every dimension that
   mentions the carrier, both sides use only the carrier with the same
   coefficient, so the delta is pinned to [(cf - cg) / (a * step)]. *)
let strong_siv_distance ~carrier ~step a_acc b_acc =
  let dims = List.combine a_acc.idxs b_acc.idxs in
  let carrier_dims =
    List.filter
      (fun (f, g) -> Affine.coeff f carrier <> 0 || Affine.coeff g carrier <> 0)
      dims
  in
  if carrier_dims = [] then None
  else
    let dist (f, g) =
      let a = Affine.coeff f carrier and b = Affine.coeff g carrier in
      if
        a = b && a <> 0
        && List.for_all (fun v -> String.equal v carrier) (union_vars f g)
      then
        let d_idx = Affine.const_part f - Affine.const_part g in
        if d_idx mod (a * step) = 0 then Some (d_idx / (a * step)) else None
      else None
    in
    match List.map dist carrier_dims with
    | Some d :: rest when List.for_all (fun x -> x = Some d) rest -> Some d
    | _ -> None

let directions_for ~nest ~carrier =
  let rec go seen = function
    | [] -> []
    | v :: rest ->
        if Option.equal String.equal (Some v) carrier then
          (v, Lt) :: go true rest
        else (v, (if seen then Any else Eq)) :: go seen rest
  in
  go false nest

let edges_between ~nest a b =
  (* [a] textually precedes [b] (or a == b for self edges). *)
  let out = ref [] in
  if
    String.equal a.base b.base
    && (a.write || b.write)
    && List.length a.idxs = List.length b.idxs
  then begin
    (* loop-independent *)
    (match if a.stmt <> b.stmt then same_instance ~box:a.box a b else None with
    | None -> ()
    | Some (exact, reason) ->
        out :=
          {
            src = a.stmt;
            dst = b.stmt;
            array = a.base;
            ekind = kind_of ~src_write:a.write ~dst_write:b.write;
            carrier = None;
            distance = None;
            directions = List.map (fun v -> (v, Eq)) nest;
            exact;
            reason;
          }
          :: !out);
    (* carried on each common loop, outer loops pinned equal *)
    let rec loop_over outer = function
      | [] -> ()
      | carrier :: inner ->
          let carrier_range = box_range a.box carrier in
          let carrier_step =
            match carrier_range with
            | Box.Known { step; _ } -> step
            | Box.Unknown -> 1
          in
          let directed src dst =
            match carried_from ~carrier ~outer src dst with
            | None -> ()
            | Some (exact, reason) ->
                out :=
                  {
                    src = src.stmt;
                    dst = dst.stmt;
                    array = src.base;
                    ekind = kind_of ~src_write:src.write ~dst_write:dst.write;
                    carrier = Some carrier;
                    distance = strong_siv_distance ~carrier ~step:carrier_step src dst;
                    directions = directions_for ~nest ~carrier:(Some carrier);
                    exact;
                    reason;
                  }
                  :: !out
          in
          directed a b;
          if a.stmt <> b.stmt then directed b a;
          loop_over (carrier :: outer) inner
    in
    loop_over [] nest
  end;
  List.rev !out

let dedup_edges edges =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let key = (e.src, e.dst, e.array, e.ekind, e.carrier) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    edges

let of_program (prog : Program.t) =
  let edges = ref [] in
  let reductions = ref [] in
  let rec go ~nest ~box items =
    List.iter
      (function
        | Program.Stmts blk ->
            let accesses =
              List.concat_map
                (fun (s : Stmt.t) ->
                  let w, r = stmt_accesses ~box s in
                  w @ r)
                blk.Block.stmts
            in
            let nest_vars = List.rev_map fst box |> fun l -> l in
            ignore nest;
            let rec pairs = function
              | [] -> ()
              | a :: rest ->
                  edges := edges_between ~nest:nest_vars a a @ !edges;
                  List.iter
                    (fun b -> edges := edges_between ~nest:nest_vars a b @ !edges)
                    rest;
                  pairs rest
            in
            pairs accesses
        | Program.Loop l ->
            if nest = [] then begin
              (* outermost loops own the reduction report *)
              List.iter
                (fun (s, op) ->
                  let ids =
                    List.filter_map
                      (fun (st : Stmt.t) ->
                        if scalar_def st = Some s then Some st.Stmt.id else None)
                      (stmts_of_items l.Program.body)
                  in
                  reductions := (s, op, ids) :: !reductions)
                (reductions_of_items l.Program.body)
            end;
            go ~nest:(l.Program.index :: nest)
              ~box:
                (Box.add box l.Program.index
                   (Box.of_bounds ~lo:l.Program.lo ~hi:l.Program.hi
                      ~step:l.Program.step))
              l.Program.body)
      items
  in
  go ~nest:[] ~box:Box.empty prog.Program.body;
  {
    program = prog.Program.name;
    edges = dedup_edges (List.rev !edges);
    reductions = List.rev !reductions;
  }

(* Blocks with their enclosing boxes, in [Program.blocks] order — the
   driver zips this with its own nest walk. *)
let blocks_with_box (prog : Program.t) =
  let rec go ~box items =
    List.concat_map
      (function
        | Program.Stmts b -> [ (b, box) ]
        | Program.Loop l ->
            go
              ~box:
                (Box.add box l.Program.index
                   (Box.of_bounds ~lo:l.Program.lo ~hi:l.Program.hi
                      ~step:l.Program.step))
              l.Program.body)
      items
  in
  go ~box:Box.empty prog.Program.body

(* -- JSON ----------------------------------------------------------- *)

module Json = Slp_obs.Json

let direction_string = function Lt -> "<" | Eq -> "=" | Gt -> ">" | Any -> "*"
let kind_string = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

let op_string = function
  | Types.Add -> "+"
  | Types.Mul -> "*"
  | Types.Min -> "min"
  | Types.Max -> "max"
  | Types.Sub -> "-"
  | Types.Div -> "/"

let edge_to_json e =
  Json.Obj
    [
      ("src", Json.Num (float_of_int e.src));
      ("dst", Json.Num (float_of_int e.dst));
      ("array", Json.Str e.array);
      ("kind", Json.Str (kind_string e.ekind));
      ( "carrier",
        match e.carrier with None -> Json.Null | Some v -> Json.Str v );
      ( "distance",
        match e.distance with
        | None -> Json.Null
        | Some d -> Json.Num (float_of_int d) );
      ( "directions",
        Json.Arr
          (List.map
             (fun (v, d) ->
               Json.Obj [ ("loop", Json.Str v); ("dir", Json.Str (direction_string d)) ])
             e.directions) );
      ("exact", Json.Bool e.exact);
      ( "reason",
        match e.reason with None -> Json.Null | Some r -> Json.Str r );
    ]

let to_json g =
  Json.Obj
    [
      ("program", Json.Str g.program);
      ("edges", Json.Arr (List.map edge_to_json g.edges));
      ( "reductions",
        Json.Arr
          (List.map
             (fun (s, op, ids) ->
               Json.Obj
                 [
                   ("scalar", Json.Str s);
                   ("op", Json.Str (op_string op));
                   ( "stmts",
                     Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) ids)
                   );
                 ])
             g.reductions) );
    ]
