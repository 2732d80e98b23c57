open Slp_ir

(* -- normalisation ------------------------------------------------- *)

let used_names prog =
  let scalars = Hashtbl.create 8 and arrays = Hashtbl.create 8 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (s : Stmt.t) ->
          List.iter
            (function
              | Operand.Scalar v -> Hashtbl.replace scalars v ()
              | Operand.Elem (a, _) -> Hashtbl.replace arrays a ()
              | Operand.Const _ -> ())
            (Stmt.positions s))
        b.Block.stmts)
    (Program.blocks prog);
  (Hashtbl.mem scalars, Hashtbl.mem arrays)

let gc_env (prog : Program.t) =
  let scalar_used, array_used = used_names prog in
  let env = Env.create () in
  List.iter
    (fun (v, ty) ->
      (* Loop indices never appear in the declaration table, so every
         used scalar here is a declared one. *)
      if scalar_used v then Env.declare_scalar env v ty)
    (Env.scalars prog.Program.env);
  List.iter
    (fun (a, info) ->
      if array_used a then Env.declare_array env a info.Env.elem_ty info.Env.dims)
    (Env.arrays prog.Program.env);
  { prog with Program.env }

(* Merge adjacent statement blocks, renumber statement ids 1..n per
   block, drop empty blocks and empty loops, and remove declarations
   no statement references. *)
let normalize (prog : Program.t) =
  let rec go items =
    let items =
      List.filter_map
        (function
          | Program.Stmts b -> if b.Block.stmts = [] then None else Some (Program.Stmts b)
          | Program.Loop l -> begin
              match go l.Program.body with
              | [] -> None
              | body -> Some (Program.Loop { l with Program.body })
            end)
        items
    in
    let rec merge = function
      | Program.Stmts a :: Program.Stmts b :: rest ->
          merge
            (Program.Stmts { a with Block.stmts = a.Block.stmts @ b.Block.stmts }
            :: rest)
      | x :: rest -> x :: merge rest
      | [] -> []
    in
    List.map
      (function
        | Program.Stmts b ->
            Program.Stmts
              (Block.make ~label:b.Block.label
                 (List.mapi
                    (fun k (s : Stmt.t) ->
                      Stmt.make ~id:(k + 1) ~lhs:s.Stmt.lhs ~rhs:s.Stmt.rhs)
                    b.Block.stmts))
        | loop -> loop)
      (merge items)
  in
  gc_env { prog with Program.body = go prog.Program.body }

(* -- candidate enumeration ----------------------------------------- *)

(* Apply [f] at every item position, collecting one candidate body per
   rewrite [f] proposes; recursion also proposes rewrites inside loop
   bodies. *)
let rec rewrites (f : Program.item -> Program.item list list) items =
  match items with
  | [] -> []
  | item :: rest ->
      let here = List.map (fun repl -> repl @ rest) (f item) in
      let inside =
        match item with
        | Program.Stmts _ -> []
        | Program.Loop l ->
            List.map
              (fun body -> Program.Loop { l with Program.body } :: rest)
              (rewrites f l.Program.body)
      in
      let later = List.map (fun r -> item :: r) (rewrites f rest) in
      here @ inside @ later

let rec subst_items v a items =
  List.map
    (function
      | Program.Stmts b ->
          Program.Stmts
            {
              b with
              Block.stmts = List.map (fun s -> Stmt.subst_index s v a) b.Block.stmts;
            }
      | Program.Loop l ->
          Program.Loop
            {
              l with
              Program.lo = Affine.subst l.Program.lo v a;
              Program.hi = Affine.subst l.Program.hi v a;
              Program.body = subst_items v a l.Program.body;
            })
    items

(* Delete one statement. *)
let stmt_deletions =
  rewrites (function
    | Program.Stmts b ->
        List.mapi
          (fun i _ ->
            [
              Program.Stmts
                { b with Block.stmts = List.filteri (fun j _ -> j <> i) b.Block.stmts };
            ])
          b.Block.stmts
    | Program.Loop _ -> [])

(* Delete one loop level, pinning its index at the lower bound. *)
let loop_removals =
  rewrites (function
    | Program.Loop l -> begin
        match Affine.to_const l.Program.lo with
        | Some lo -> [ subst_items l.Program.index (Affine.const lo) l.Program.body ]
        | None -> []
      end
    | Program.Stmts _ -> [])

(* Narrow a loop's trip count: straight to one iteration, then halves. *)
let narrowings =
  rewrites (function
    | Program.Loop l -> begin
        match (Affine.to_const l.Program.lo, Affine.to_const l.Program.hi) with
        | Some lo, Some hi ->
            let step = l.Program.step in
            let trip = if hi <= lo then 0 else ((hi - lo) + step - 1) / step in
            if trip <= 1 then []
            else
              let cand t = Program.Loop { l with Program.hi = Affine.const (lo + (t * step)) } in
              let half = (trip + 1) / 2 in
              [ [ cand 1 ] ] @ (if half < trip then [ [ cand half ] ] else [])
        | _, _ -> []
      end
    | Program.Stmts _ -> [])

(* Replace a statement's rhs by one of its immediate subtrees. *)
let rhs_cuts =
  rewrites (function
    | Program.Stmts b ->
        List.concat
          (List.mapi
             (fun i (s : Stmt.t) ->
               let children =
                 match s.Stmt.rhs with
                 | Expr.Leaf _ -> []
                 | Expr.Un (_, e) -> [ e ]
                 | Expr.Bin (_, a, b) -> [ a; b ]
               in
               List.map
                 (fun rhs ->
                   [
                     Program.Stmts
                       {
                         b with
                         Block.stmts =
                           List.mapi
                             (fun j (s' : Stmt.t) ->
                               if i = j then { s' with Stmt.rhs } else s')
                             b.Block.stmts;
                       };
                   ])
                 children)
             b.Block.stmts)
    | Program.Loop _ -> [])

(* -- the greedy loop ----------------------------------------------- *)

let run ?(max_checks = 1000) ~still_fails prog =
  let checks = ref 0 in
  let ok p =
    !checks < max_checks
    && begin
         incr checks;
         match Program.validate p with Ok () -> still_fails p | Error _ -> false
       end
  in
  let passes = [ stmt_deletions; loop_removals; narrowings; rhs_cuts ] in
  let rec go p =
    if !checks >= max_checks then p
    else
      let candidate =
        List.find_map
          (fun pass ->
            List.find_map
              (fun body ->
                let c = normalize { p with Program.body } in
                if ok c then Some c else None)
              (pass p.Program.body))
          passes
      in
      match candidate with Some c -> go c | None -> p
  in
  let start =
    let n = normalize prog in
    if ok n then n else prog
  in
  go start
