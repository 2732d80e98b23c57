open Slp_ir

type t = Operand.t list

let of_operands ops = List.sort Operand.compare ops
let union a b = List.merge Operand.compare a b
let size = List.length
let operands t = t
let equal a b = List.equal Operand.equal a b
let compare a b = List.compare Operand.compare a b

let all_constant t =
  List.for_all
    (function Operand.Const _ -> true | Operand.Scalar _ | Operand.Elem _ -> false)
    t

let mem op t = List.exists (Operand.equal op) t

let pp ppf t =
  Format.fprintf ppf "{%s}" (String.concat ", " (List.map Operand.to_string t))

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
