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
   the independent verdicts against concrete execution.

   Cost.  A block's accesses are extracted and resolved once, into a
   [table]: each loop index becomes an id, its nest depth (the
   innermost binding of a name wins), a subscript dimension becomes a
   row of ints (its constant, then one coefficient per depth), and the
   box keeps each range normalised to [lo + step * t], [t] in
   [0, trip).  The accesses are indexed by array, so only pairs on one
   array of equal rank with at least one write reach the solver, in
   block order.  A solve folds its terms into one mutable [eq], reused
   across the block, and returns an int verdict: it allocates nothing.
   Only the edges and pairs it reports are built. *)

open Slp_ir

(* -- iteration boxes ------------------------------------------------ *)

module Box = struct
  type range = Known of { lo : int; hi : int; step : int } | Unknown

  let trip = function
    | Known { lo; hi; step } ->
        Some (if hi <= lo then 0 else ((hi - lo) + step - 1) / step)
    | Unknown -> None

  type t = { names : string array; lo : int array; step : int array; trip : int array }
  (* By nest depth, outermost first.  Each range is kept normalised, as
     [lo + step * t] for [t] in [0, trip), with [trip = -1] when it is
     symbolic, so that a solve reads ints. *)

  let empty = { names = [||]; lo = [||]; step = [||]; trip = [||] }

  let add t var range =
    let lo, step = match range with Known r -> (r.lo, r.step) | Unknown -> (0, 1) in
    let push a x = Array.append a [| x |] in
    {
      names = push t.names var;
      lo = push t.lo lo;
      step = push t.step step;
      trip = push t.trip (Option.value (trip range) ~default:(-1));
    }

  let of_bounds ~lo ~hi ~step =
    match (Affine.to_const lo, Affine.to_const hi) with
    | Some lo, Some hi -> Known { lo; hi; step }
    | _ -> Unknown
end

type sol =
  | Unsolvable
  | Solvable of { exact : bool; reason : string option }
      (** [exact = false] means the tests were inconclusive and the
          verdict is the conservative fallback; [reason] says why
          (["symbolic-bounds"] or ["banerjee-inconclusive"]). *)

type access = {
  stmt : int;  (** id of the statement performing the access *)
  base : string;
  idxs : Affine.t list;
  write : bool;
  box : Box.t;  (** enclosing loop ranges at the access site *)
}

(* -- resolved subscripts -------------------------------------------- *)

let rec rindex names v i =
  if i < 0 then -1 else if String.equal names.(i) v then i else rindex names v (i - 1)

(* The depth of the loop binding [v] in [box], the innermost binding of
   a name winning; -1 when no loop binds it. *)
let depth_of (box : Box.t) v = rindex box.Box.names v (Array.length box.Box.names - 1)

(* [box], with every variable of [idxs] that it does not bind appended
   as a loop of symbolic range. *)
let rec bind_terms f box i =
  if i = Affine.length f then box
  else
    let v = Affine.var_at f i in
    bind_terms f (if depth_of box v >= 0 then box else Box.add box v Box.Unknown) (i + 1)

let bind_all box idxs = List.fold_left (fun box f -> bind_terms f box 0) box idxs

(* Write the rows of [idxs] into [dims] from [row], [width] apart:
   dimension [r] holds the constant and then the coefficient of each
   depth's variable of [box].  [false], with the rows part written,
   when [box] does not bind some variable: callers then resolve again
   against [bind_all box idxs]. *)
let rec resolve_terms (box : Box.t) dims row f i =
  i = Affine.length f
  ||
  let d = depth_of box (Affine.var_at f i) in
  d >= 0
  && begin
       dims.(row + 1 + d) <- Affine.coeff_at f i;
       resolve_terms box dims row f (i + 1)
     end

let rec resolve box dims row width = function
  | [] -> true
  | f :: fs ->
      dims.(row) <- Affine.const_part f;
      resolve_terms box dims row f 0 && resolve box dims (row + width) width fs

(* A block's array accesses resolved once against its box: access [k]
   has [rank.(k)] rows in [dims] from [off.(k)]. *)
type table = {
  box : Box.t;  (** the block's box, binding every subscript variable *)
  pos : int array;  (** per access: its statement's position in the block *)
  stmt : int array;
  base : string array;
  write : bool array;
  rank : int array;
  off : int array;
  dims : int array;
}

(* Each statement's write before its reads. *)
let block_table ~box stmts =
  let accs = ref [] in
  List.iteri
    (fun p (s : Stmt.t) ->
      let add ~write = function
        | Operand.Elem (base, idxs) -> accs := (p, s.Stmt.id, base, idxs, write) :: !accs
        | Operand.Const _ | Operand.Scalar _ -> ()
      in
      add ~write:true s.Stmt.lhs;
      List.iter (add ~write:false) (Expr.leaves s.Stmt.rhs))
    stmts;
  let accs = Array.of_list (List.rev !accs) in
  let rank = Array.map (fun (_, _, _, idxs, _) -> List.length idxs) accs in
  let rec resolved box =
    let width = Array.length box.Box.names + 1 in
    let off = Array.make (Array.length accs) 0 in
    let rows = ref 0 in
    Array.iteri
      (fun k r ->
        off.(k) <- !rows * width;
        rows := !rows + r)
      rank;
    let dims = Array.make (!rows * width) 0 in
    if Array.for_all2 (fun (_, _, _, idxs, _) off -> resolve box dims off width idxs) accs off
    then (box, off, dims)
    else resolved (Array.fold_left (fun box (_, _, _, idxs, _) -> bind_all box idxs) box accs)
  in
  let box, off, dims = resolved box in
  {
    box;
    pos = Array.map (fun (p, _, _, _, _) -> p) accs;
    stmt = Array.map (fun (_, id, _, _, _) -> id) accs;
    base = Array.map (fun (_, _, base, _, _) -> base) accs;
    write = Array.map (fun (_, _, _, _, write) -> write) accs;
    rank;
    off;
    dims;
  }

(* [next.(k)]: the next access after [k] in block order on [k]'s
   array; -1 after the last. *)
let next_on_array (t : table) =
  let n = Array.length t.base in
  let next = Array.make n (-1) and later = Hashtbl.create 16 in
  for k = n - 1 downto 0 do
    Option.iter (fun j -> next.(k) <- j) (Hashtbl.find_opt later t.base.(k));
    Hashtbl.replace later t.base.(k) k
  done;
  next

(* -- the per-dimension equation solver ------------------------------ *)

(* One equation [sum terms + const = 0], folded term by term: the GCD
   of the coefficients, the Banerjee bounds of the terms whose variable
   has a known range, whether some term's range is symbolic, and
   whether some range is empty (a zero-trip loop: no instances, hence
   no dependence). *)
type eq = {
  mutable const : int;
  mutable gcd : int;
  mutable low : int;
  mutable high : int;
  mutable terms : int;
  mutable free : bool;
  mutable infeasible : bool;
}

let eq () =
  { const = 0; gcd = 0; low = 0; high = 0; terms = 0; free = false; infeasible = false }

let reset e const =
  e.const <- const;
  e.gcd <- 0;
  e.low <- 0;
  e.high <- 0;
  e.terms <- 0;
  e.free <- false;
  e.infeasible <- false

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* [c * t], [t] over [lo, hi] with [lo < hi], [c <> 0]. *)
let bounded e c lo hi =
  e.gcd <- gcd e.gcd (abs c);
  if c > 0 then begin
    e.low <- e.low + (c * lo);
    e.high <- e.high + (c * hi)
  end
  else begin
    e.low <- e.low + (c * hi);
    e.high <- e.high + (c * lo)
  end;
  e.terms <- e.terms + 1

(* [c * v], [v] unbounded. *)
let free e c =
  if c <> 0 then begin
    e.gcd <- gcd e.gcd (abs c);
    e.free <- true;
    e.terms <- e.terms + 1
  end

(* [c * v], [v] the variable at depth [s] of [box]: [v = lo + step * t]
   leaves the term [c * step * t] over [0, trip - 1]. *)
let term (box : Box.t) e c s =
  if c <> 0 then begin
    let trip = box.Box.trip.(s) in
    if trip < 0 then free e c
    else if trip = 0 then e.infeasible <- true
    else begin
      e.const <- e.const + (c * box.Box.lo.(s));
      if trip > 1 then bounded e (c * box.Box.step.(s)) 0 (trip - 1)
    end
  end

(* [c * d], [d] over [lo, hi] in normalised iterations: the carrier's. *)
let interval e c lo hi =
  if lo > hi then e.infeasible <- true
  else if c <> 0 then if lo = hi then e.const <- e.const + (c * lo) else bounded e c lo hi

(* Verdicts, as ints so that a solve allocates nothing: no solution, or
   a solution found exactly or assumed for the reason named. *)
let none = 0
let exact = 1
let symbolic = 2
let inconclusive = 3

(* ZIV, GCD, the symbolic fallback, Banerjee, and a single term's
   exactness, in that order. *)
let verdict e =
  if e.infeasible then none
  else if e.terms = 0 then if e.const = 0 then exact else none
  else if e.gcd > 0 && e.const mod e.gcd <> 0 then none
  else if e.free then symbolic
  else if -e.const < e.low || -e.const > e.high then none
  else if e.terms = 1 then exact
  else inconclusive

(* A pair's verdict over its dimensions: [none] as soon as one has no
   solution, otherwise [exact] or the reason of the first inexact one. *)
let merge acc v = if acc = exact then v else acc

let reason_of v = if v = symbolic then Some "symbolic-bounds" else Some "banerjee-inconclusive"

let sol_of v =
  if v = none then Unsolvable
  else if v = exact then Solvable { exact = true; reason = None }
  else Solvable { exact = false; reason = reason_of v }

(* Same instance, dimension by dimension from [r], for the accesses
   whose rows start at [fo] and [go] in [dims]: every variable is
   shared, so coefficients subtract. *)
let rec same_dims (box : Box.t) dims fo go ~rank e r acc =
  if r = rank then acc
  else begin
    let width = Array.length box.Box.names + 1 in
    let f = fo + (r * width) and g = go + (r * width) in
    reset e (dims.(f) - dims.(g));
    for s = 0 to width - 2 do
      term box e (dims.(f + 1 + s) - dims.(g + 1 + s)) s
    done;
    let v = verdict e in
    if v = none then none else same_dims box dims fo go ~rank e (r + 1) (merge acc v)
  end

let same_instance (t : table) e i j =
  same_dims t.box t.dims t.off.(i) t.off.(j) ~rank:t.rank.(i) e 0 exact

let rec same_instance_eqn ~box f g =
  let width = Array.length box.Box.names + 1 in
  let dims = Array.make (2 * width) 0 in
  if resolve box dims 0 width [ f; g ] then
    sol_of (same_dims box dims 0 width ~rank:1 (eq ()) 0 exact)
  else same_instance_eqn ~box:(bind_all box [ f; g ]) f g

(* Cross instance, directed, dimension by dimension from [r]: the
   access whose rows start at [fo] in [fd] (resolved against [fb]) runs
   in an earlier iteration of the carrier than the one at [go] in [gd]
   (against [gb]).  The carrier is depth [cf] of [fb] and [cg] of [gb]
   (-1 when absent), with [fb]'s range; the [pinned] outermost depths,
   which the two boxes share, are the same iteration on both sides;
   every other variable is renamed, each side ranging over its own
   box. *)
let rec carried_dims (fb : Box.t) fd fo (gb : Box.t) gd go ~cf ~cg ~pinned ~rank e r acc =
  if r = rank then acc
  else begin
    let fw = Array.length fb.Box.names + 1 and gw = Array.length gb.Box.names + 1 in
    let f = fo + (r * fw) and g = go + (r * gw) in
    reset e (fd.(f) - gd.(g));
    let a = if cf < 0 then 0 else fd.(f + 1 + cf)
    and b = if cg < 0 then 0 else gd.(g + 1 + cg) in
    (* f side: carrier value lo + step*t; g side: lo + step*(t + d),
       d >= 1: step*(a-b)*t - step*b*d, plus (a-b)*lo. *)
    let trip = if cf < 0 then -1 else fb.Box.trip.(cf) in
    if trip < 0 then begin
      (* t free, d >= 1 free: d = 1 + e with e unconstrained. *)
      free e (a - b);
      e.const <- e.const - b;
      free e (-b)
    end
    else if trip >= 2 then begin
      let step = fb.Box.step.(cf) in
      e.const <- e.const + ((a - b) * fb.Box.lo.(cf));
      interval e ((a - b) * step) 0 (trip - 2);
      interval e (-b * step) 1 (trip - 1)
    end
    else e.infeasible <- true (* fewer than two iterations: no pair *);
    for s = 0 to pinned - 1 do
      term fb e (fd.(f + 1 + s) - gd.(g + 1 + s)) s
    done;
    for s = pinned to fw - 2 do
      if s <> cf then term fb e fd.(f + 1 + s) s
    done;
    for s = pinned to gw - 2 do
      if s <> cg then term gb e (-gd.(g + 1 + s)) s
    done;
    let v = verdict e in
    if v = none then none
    else carried_dims fb fd fo gb gd go ~cf ~cg ~pinned ~rank e (r + 1) (merge acc v)
  end

(* Undirected cross-instance conflict on [pvar] (chunk independence):
   conflict in either direction, no outer shared loops.  [ab] and [bb]
   are the boxes [a] and [b] resolve against. *)
let rec cross_conflict ~pvar ~rank (a : access) ab (b : access) bb =
  let aw = Array.length ab.Box.names + 1 and bw = Array.length bb.Box.names + 1 in
  let dims = Array.make (rank * (aw + bw)) 0 in
  if resolve ab dims 0 aw a.idxs && resolve bb dims (rank * aw) bw b.idxs then
    let e = eq () and ca = depth_of ab pvar and cb = depth_of bb pvar in
    carried_dims ab dims 0 bb dims (rank * aw) ~cf:ca ~cg:cb ~pinned:0 ~rank e 0 exact <> none
    || carried_dims bb dims (rank * aw) ab dims 0 ~cf:cb ~cg:ca ~pinned:0 ~rank e 0 exact
       <> none
  else cross_conflict ~pvar ~rank a (bind_all ab a.idxs) b (bind_all bb b.idxs)

let cross_instance_conflict ~pvar (a : access) (b : access) =
  String.equal a.base b.base
  && (a.write || b.write)
  && List.length a.idxs = List.length b.idxs
  && cross_conflict ~pvar ~rank:(List.length a.idxs) a a.box b b.box

(* -- statement-level dependence within a block ---------------------- *)

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
   solution inside the box stop blocking packing.  Statement [p]
   depends on a later [q] when some access of each touches one scalar
   or array, one of them writes it, and for an array the subscripts
   can meet.  Only those candidates are visited, each statement's
   after the scalar ones, and a statement pair already found is not
   solved again. *)
let block_dep_pairs ~box (block : Block.t) =
  let stmts = Array.of_list block.Block.stmts in
  let n = Array.length stmts in
  let t = block_table ~box block.Block.stmts in
  let next = next_on_array t in
  (* Each statement's scalar accesses (name, writes), and by name the
     statement position of each. *)
  let scalars =
    Array.map
      (fun s ->
        let reads = List.map (fun v -> (v, false)) (scalar_reads s) in
        match scalar_def s with Some v -> (v, true) :: reads | None -> reads)
      stmts
  in
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun p accs -> List.iter (fun (v, write) -> Hashtbl.add by_name v (p, write)) accs)
    scalars;
  let e = eq () in
  let marked = Array.make n (-1) in
  let later = ref [] in
  let mark p q =
    if marked.(q) <> p then begin
      marked.(q) <- p;
      later := q :: !later
    end
  in
  let first = ref (Array.length t.pos) in
  let pairs = ref [] in
  for p = n - 1 downto 0 do
    later := [];
    List.iter
      (fun (v, write) ->
        List.iter
          (fun (q, w) -> if q > p && (write || w) then mark p q)
          (Hashtbl.find_all by_name v))
      scalars.(p);
    (* Statement [p]'s array accesses are [!first, last). *)
    let last = !first in
    while !first > 0 && t.pos.(!first - 1) = p do
      decr first
    done;
    for i = !first to last - 1 do
      let j = ref next.(i) in
      while !j >= 0 do
        let q = t.pos.(!j) in
        if
          q > p
          && marked.(q) <> p
          && (t.write.(i) || t.write.(!j))
          && t.rank.(i) = t.rank.(!j)
          && same_instance t e i !j <> none
        then mark p q;
        j := next.(!j)
      done
    done;
    List.iter
      (fun q -> pairs := (stmts.(p).Stmt.id, stmts.(q).Stmt.id) :: !pairs)
      (List.sort (fun a b -> compare b a) !later)
  done;
  !pairs

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
   mentions the carrier (slot [c]), both sides use only the carrier
   with the same coefficient, so the delta is pinned to
   [(cf - cg) / (a * step)].  [found] is the distance of the carrier
   dimensions before [r], [None] before the first. *)
let rec only_depth dims row c s width =
  s = width - 1 || ((s = c || dims.(row + 1 + s) = 0) && only_depth dims row c (s + 1) width)

let rec strong_siv_distance (t : table) ~c i j r found =
  if r = t.rank.(i) then found
  else
    let width = Array.length t.box.Box.names + 1 in
    let f = t.off.(i) + (r * width) and g = t.off.(j) + (r * width) in
    let a = t.dims.(f + 1 + c) and b = t.dims.(g + 1 + c) in
    if a = 0 && b = 0 then strong_siv_distance t ~c i j (r + 1) found
    else
      let unit = a * t.box.Box.step.(c) and d_idx = t.dims.(f) - t.dims.(g) in
      if a = b && only_depth t.dims f c 0 width && only_depth t.dims g c 0 width
         && d_idx mod unit = 0
      then
        match found with
        | Some d when d <> d_idx / unit -> None
        | Some _ -> strong_siv_distance t ~c i j (r + 1) found
        | None -> strong_siv_distance t ~c i j (r + 1) (Some (d_idx / unit))
      else None

let directions_for ~nest ~carrier =
  let rec go seen = function
    | [] -> []
    | v :: rest ->
        if Option.equal String.equal (Some v) carrier then
          (v, Lt) :: go true rest
        else (v, (if seen then Any else Eq)) :: go seen rest
  in
  go false nest

(* The edge from access [src] of [t] to [dst] with verdict [v]. *)
let edge (t : table) src dst ~carrier ~distance ~directions v =
  {
    src = t.stmt.(src);
    dst = t.stmt.(dst);
    array = t.base.(src);
    ekind = kind_of ~src_write:t.write.(src) ~dst_write:t.write.(dst);
    carrier;
    distance;
    directions;
    exact = v = exact;
    reason = (if v = exact then None else reason_of v);
  }

(* The edge carried on [nest]'s loop at depth [d] from access [src] to
   [dst], if [dst]'s instance at a later iteration can touch [src]'s
   element: loops outside the carrier pinned equal, loops inside it
   renamed. *)
let carried_edge (t : table) e ~nest emit src dst d =
  let v =
    carried_dims t.box t.dims t.off.(src) t.box t.dims t.off.(dst) ~cf:d ~cg:d ~pinned:d
      ~rank:t.rank.(src) e 0 exact
  in
  if v <> none then
    let carrier = Some (List.nth nest d) in
    emit
      (edge t src dst ~carrier
         ~distance:(strong_siv_distance t ~c:d src dst 0 None)
         ~directions:(directions_for ~nest ~carrier) v)

(* The edges of accesses [i] and [j] ([i] first in block order, or
   [i = j]) of a block in [nest], in the graph's order: carried ones
   innermost carrier first, each from [j] to [i] before [i] to [j]
   (only the latter for two accesses of one statement), then the
   loop-independent one between two statements. *)
let pair_edges (t : table) e ~nest emit i j =
  let two = t.stmt.(i) <> t.stmt.(j) in
  for d = List.length nest - 1 downto 0 do
    if two then carried_edge t e ~nest emit j i d;
    carried_edge t e ~nest emit i j d
  done;
  if two then
    let v = same_instance t e i j in
    if v <> none then
      emit
        (edge t i j ~carrier:None ~distance:None
           ~directions:(List.map (fun l -> (l, Eq)) nest)
           v)

(* Every candidate pair of a block in block order, each access with
   itself and then with the later accesses of its array: those of
   equal rank where one of the two writes. *)
let block_edges ~(box : Box.t) (blk : Block.t) emit =
  let t = block_table ~box blk.Block.stmts in
  let next = next_on_array t in
  let e = eq () in
  let nest = Array.to_list box.Box.names in
  for i = 0 to Array.length t.base - 1 do
    let j = ref i in
    while !j >= 0 do
      if (t.write.(i) || t.write.(!j)) && t.rank.(i) = t.rank.(!j) then
        pair_edges t e ~nest emit i !j;
      j := next.(!j)
    done
  done

(* Edges are listed block by block, pair by pair, and an edge whose
   (src, dst, array, kind, carrier) an earlier one has is dropped. *)
let of_program (prog : Program.t) =
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  let emit e =
    let key = (e.src, e.dst, e.array, e.ekind, e.carrier) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      edges := e :: !edges
    end
  in
  let reductions = ref [] in
  let rec go ~(box : Box.t) items =
    List.iter
      (function
        | Program.Stmts blk -> block_edges ~box blk emit
        | Program.Loop l ->
            if Array.length box.Box.names = 0 then begin
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
            go
              ~box:
                (Box.add box l.Program.index
                   (Box.of_bounds ~lo:l.Program.lo ~hi:l.Program.hi
                      ~step:l.Program.step))
              l.Program.body)
      items
  in
  go ~box:Box.empty prog.Program.body;
  { program = prog.Program.name; edges = List.rev !edges; reductions = List.rev !reductions }

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
