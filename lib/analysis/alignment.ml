open Slp_ir

type verdict = Aligned | Misaligned of int | Unknown

let of_access ~lanes ~dims access =
  if lanes <= 0 then invalid_arg "Alignment.of_access: lanes must be positive";
  let coeffs, const = Access.linearise ~dims access in
  let all_divisible = Array.for_all (fun c -> c mod lanes = 0) coeffs in
  if not all_divisible then Unknown
  else
    let r = ((const mod lanes) + lanes) mod lanes in
    if r = 0 then Aligned else Misaligned r

let of_operand ~env ~nest ~lanes op =
  match Access.of_operand ~nest op with
  | None -> None
  | Some access ->
      let dims = Env.row_size env access.Access.base in
      Some (of_access ~lanes ~dims access)

let contiguous_pack ~env ops =
  let row_size = Env.row_size env in
  let rec consecutive = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
        Operand.adjacent_in_memory ~row_size a b && consecutive rest
  in
  match ops with
  | [] | [ _ ] -> false
  | Operand.Elem _ :: _ -> consecutive ops
  | (Operand.Const _ | Operand.Scalar _) :: _ -> false

let pp_verdict ppf = function
  | Aligned -> Format.pp_print_string ppf "aligned"
  | Misaligned k -> Format.fprintf ppf "misaligned+%d" k
  | Unknown -> Format.pp_print_string ppf "unknown"
