open Slp_ir

let rec fold_expr e =
  match e with
  | Expr.Leaf _ -> e
  | Expr.Un (op, inner) -> begin
      match fold_expr inner with
      | Expr.Leaf (Operand.Const c) -> Expr.Leaf (Operand.Const (Types.eval_unop op c))
      | folded -> Expr.Un (op, folded)
    end
  | Expr.Bin (op, l, r) -> begin
      let l = fold_expr l and r = fold_expr r in
      match (op, l, r) with
      | _, Expr.Leaf (Operand.Const a), Expr.Leaf (Operand.Const b) ->
          Expr.Leaf (Operand.Const (Types.eval_binop op a b))
      | Types.Add, Expr.Leaf (Operand.Const 0.0), x
      | Types.Add, x, Expr.Leaf (Operand.Const 0.0)
      | Types.Sub, x, Expr.Leaf (Operand.Const 0.0)
      | Types.Mul, Expr.Leaf (Operand.Const 1.0), x
      | Types.Mul, x, Expr.Leaf (Operand.Const 1.0)
      | Types.Div, x, Expr.Leaf (Operand.Const 1.0) ->
          x
      | _, _, _ -> Expr.Bin (op, l, r)
    end

let fold_block (b : Block.t) =
  {
    b with
    Block.stmts =
      List.map (fun (s : Stmt.t) -> { s with Stmt.rhs = fold_expr s.Stmt.rhs }) b.Block.stmts;
  }

let fold_program prog = Program.map_blocks prog ~f:fold_block

let dce_block ~live_out (b : Block.t) =
  (* Walk backwards, tracking scalars needed later. *)
  let needed = Hashtbl.create 16 in
  let keep =
    List.rev_map
      (fun (s : Stmt.t) ->
        let defines_dead_scalar =
          match s.Stmt.lhs with
          | Operand.Scalar v -> (not (Hashtbl.mem needed v)) && not (live_out v)
          | Operand.Const _ | Operand.Elem _ -> false
        in
        if defines_dead_scalar then None
        else begin
          (match s.Stmt.lhs with
          | Operand.Scalar v -> Hashtbl.remove needed v
          | Operand.Const _ | Operand.Elem _ -> ());
          List.iter
            (function
              | Operand.Scalar v -> Hashtbl.replace needed v ()
              | Operand.Const _ | Operand.Elem _ -> ())
            (Stmt.uses s);
          List.iter
            (fun v -> Hashtbl.replace needed v ())
            (Operand.used_vars s.Stmt.lhs);
          Some s
        end)
      (List.rev b.Block.stmts)
    |> List.filter_map Fun.id
  in
  { b with Block.stmts = keep }
