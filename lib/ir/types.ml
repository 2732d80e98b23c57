type scalar_ty = I8 | I16 | I32 | I64 | F32 | F64

let bits = function I8 -> 8 | I16 -> 16 | I32 -> 32 | I64 -> 64 | F32 -> 32 | F64 -> 64
let bytes ty = bits ty / 8

let scalar_ty_to_string = function
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"

let scalar_ty_of_string = function
  | "i8" -> Some I8
  | "i16" -> Some I16
  | "i32" -> Some I32
  | "i64" -> Some I64
  | "f32" -> Some F32
  | "f64" -> Some F64
  | _ -> None

let pp_scalar_ty ppf ty = Format.pp_print_string ppf (scalar_ty_to_string ty)

type binop = Add | Sub | Mul | Div | Min | Max

type unop = Neg | Abs | Sqrt

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"

let unop_to_string = function Neg -> "-" | Abs -> "abs" | Sqrt -> "sqrt"
let pp_binop ppf op = Format.pp_print_string ppf (binop_to_string op)
let pp_unop ppf op = Format.pp_print_string ppf (unop_to_string op)

let eval_binop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Min -> Float.min a b
  | Max -> Float.max a b

let eval_unop op a =
  match op with Neg -> -.a | Abs -> Float.abs a | Sqrt -> Float.sqrt a
