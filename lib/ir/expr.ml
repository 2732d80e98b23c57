type t =
  | Leaf of Operand.t
  | Un of Types.unop * t
  | Bin of Types.binop * t * t

let rec leaves = function
  | Leaf op -> [ op ]
  | Un (_, e) -> leaves e
  | Bin (_, l, r) -> leaves l @ leaves r

(* [f] may be stateful (replace_leaves feeds leaves from a list), so
   the traversal order must be the left-to-right leaf order — sequence
   explicitly, since constructor arguments evaluate right-to-left. *)
let rec map_leaves f = function
  | Leaf op -> Leaf (f op)
  | Un (u, e) -> Un (u, map_leaves f e)
  | Bin (b, l, r) ->
      let l' = map_leaves f l in
      let r' = map_leaves f r in
      Bin (b, l', r')

let rec same_shape a b =
  match (a, b) with
  | Leaf _, Leaf _ -> true
  | Un (u1, e1), Un (u2, e2) -> u1 = u2 && same_shape e1 e2
  | Bin (b1, l1, r1), Bin (b2, l2, r2) ->
      b1 = b2 && same_shape l1 l2 && same_shape r1 r2
  | (Leaf _ | Un _ | Bin _), _ -> false

let replace_leaves e ops =
  let rest = ref ops in
  let next () =
    match !rest with
    | [] -> invalid_arg "Expr.replace_leaves: too few leaves"
    | x :: tl ->
        rest := tl;
        x
  in
  let result = map_leaves (fun _ -> next ()) e in
  if !rest <> [] then invalid_arg "Expr.replace_leaves: too many leaves";
  result

let rec op_count = function
  | Leaf _ -> 0
  | Un (_, e) -> 1 + op_count e
  | Bin (_, l, r) -> 1 + op_count l + op_count r

let operators e =
  let rec go acc = function
    | Leaf _ -> acc
    | Un (u, inner) -> Either.Right u :: go acc inner
    | Bin (b, l, r) -> Either.Left b :: go (go acc l) r
  in
  List.rev (go [] e)

let rec depth = function
  | Leaf _ -> 0
  | Un (_, e) -> 1 + depth e
  | Bin (_, l, r) -> 1 + max (depth l) (depth r)

let rec equal a b =
  match (a, b) with
  | Leaf x, Leaf y -> Operand.equal x y
  | Un (u1, e1), Un (u2, e2) -> u1 = u2 && equal e1 e2
  | Bin (b1, l1, r1), Bin (b2, l2, r2) -> b1 = b2 && equal l1 l2 && equal r1 r2
  | (Leaf _ | Un _ | Bin _), _ -> false

let rec compare a b =
  match (a, b) with
  | Leaf x, Leaf y -> Operand.compare x y
  | Leaf _, (Un _ | Bin _) -> -1
  | Un _, Leaf _ -> 1
  | Un (u1, e1), Un (u2, e2) ->
      let c = Stdlib.compare u1 u2 in
      if c <> 0 then c else compare e1 e2
  | Un _, Bin _ -> -1
  | Bin (b1, l1, r1), Bin (b2, l2, r2) ->
      let c = Stdlib.compare b1 b2 in
      if c <> 0 then c
      else
        let c = compare l1 l2 in
        if c <> 0 then c else compare r1 r2
  | Bin _, (Leaf _ | Un _) -> 1

(* [env] may have effects (the interpreter charges cache latencies per
   leaf), so the operand order is pinned explicitly: right before left,
   the historical constructor-argument order, which the compiled
   execution engine replicates to keep cache state and cycle
   accumulation bit-identical. *)
let rec eval e env =
  match e with
  | Leaf op -> env op
  | Un (u, e) -> Types.eval_unop u (eval e env)
  | Bin (b, l, r) ->
      let vr = eval r env in
      let vl = eval l env in
      Types.eval_binop b vl vr

let rec pp ppf = function
  | Leaf op -> Operand.pp ppf op
  | Un (Types.Neg, e) -> Format.fprintf ppf "(-%a)" pp e
  | Un (u, e) -> Format.fprintf ppf "%a(%a)" Types.pp_unop u pp e
  | Bin ((Types.Min | Types.Max) as b, l, r) ->
      Format.fprintf ppf "%a(%a, %a)" Types.pp_binop b pp l pp r
  | Bin (b, l, r) -> Format.fprintf ppf "(%a %a %a)" pp l Types.pp_binop b pp r

let to_string e = Format.asprintf "%a" pp e

module Infix = struct
  let cst f = Leaf (Operand.Const f)
  let sc v = Leaf (Operand.Scalar v)
  let arr b idxs = Leaf (Operand.Elem (b, idxs))
  let ( + ) a b = Bin (Types.Add, a, b)
  let ( - ) a b = Bin (Types.Sub, a, b)
  let ( * ) a b = Bin (Types.Mul, a, b)
  let ( / ) a b = Bin (Types.Div, a, b)
  let neg a = Un (Types.Neg, a)
  let sqrt_ a = Un (Types.Sqrt, a)
  let i v = Affine.var v
  let ( @+ ) a c = Affine.add a (Affine.const c)
  let ( @* ) k a = Affine.scale k a
end
