open Slp_ir
module E = Slp_util.Slp_error

type verdict = Aligned | Misaligned of int | Unknown

(* The row-major linearisation of subscripts [idxs] over row sizes
   [dims], by Horner's rule: the summed coefficient of variable [v]
   ([coeff_sum]) and the constant ([const_sum]).  Both walk the two
   lists without allocating. *)
let rec coeff_sum v dims idxs acc =
  match (dims, idxs) with
  | d :: dims, ix :: idxs -> coeff_sum v dims idxs ((acc * d) + Affine.coeff ix v)
  | _ -> acc

let rec const_sum dims idxs acc =
  match (dims, idxs) with
  | d :: dims, ix :: idxs -> const_sum dims idxs ((acc * d) + Affine.const_part ix)
  | _ -> acc

let rec all_divisible lanes dims idxs = function
  | [] -> true
  | v :: nest -> coeff_sum v dims idxs 0 mod lanes = 0 && all_divisible lanes dims idxs nest

let of_operand ~env ~nest ~lanes op =
  match op with
  | Operand.Const _ | Operand.Scalar _ -> None
  | Operand.Elem (base, idxs) ->
      let in_nest ix = List.for_all (fun v -> List.mem v nest) (Affine.vars ix) in
      if not (List.for_all in_nest idxs) then None
      else begin
        let dims = Env.row_size env base in
        if lanes <= 0 then invalid_arg "Alignment.of_operand: lanes must be positive";
        if List.compare_lengths dims idxs <> 0 then
          E.fail ~pass:E.Analysis E.Internal "Alignment.of_operand: rank mismatch";
        if not (all_divisible lanes dims idxs nest) then Some Unknown
        else
          let r = ((const_sum dims idxs 0 mod lanes) + lanes) mod lanes in
          Some (if r = 0 then Aligned else Misaligned r)
      end

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
