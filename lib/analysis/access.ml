open Slp_ir
module E = Slp_util.Slp_error

type t = {
  base : string;
  q : int array array;
  offset : int array;
  nest : string list;
}

let of_operand ~nest op =
  match op with
  | Operand.Const _ | Operand.Scalar _ -> None
  | Operand.Elem (base, idxs) ->
      let ok =
        List.for_all
          (fun ix -> List.for_all (fun v -> List.mem v nest) (Affine.vars ix))
          idxs
      in
      if not ok then None
      else
        let q =
          Array.of_list
            (List.map
               (fun ix -> Array.of_list (List.map (Affine.coeff ix) nest))
               idxs)
        in
        let offset = Array.of_list (List.map Affine.const_part idxs) in
        Some { base; q; offset; nest }

let rank t = Array.length t.q
let depth t = List.length t.nest

let strides dims =
  let n = List.length dims in
  let arr = Array.of_list dims in
  let s = Array.make n 1 in
  for k = n - 2 downto 0 do
    s.(k) <- s.(k + 1) * arr.(k + 1)
  done;
  s

let linearise ~dims t =
  if List.length dims <> rank t then
    E.fail ~pass:E.Analysis E.Internal "Access.linearise: rank mismatch";
  let s = strides dims in
  let n = depth t in
  let coeffs = Array.make n 0 in
  let const = ref 0 in
  Array.iteri
    (fun k row ->
      const := !const + (t.offset.(k) * s.(k));
      Array.iteri (fun j c -> coeffs.(j) <- coeffs.(j) + (c * s.(k))) row)
    t.q;
  (coeffs, !const)

let innermost_coeff ~dims t =
  let coeffs, _ = linearise ~dims t in
  let n = Array.length coeffs in
  if n = 0 then 0 else coeffs.(n - 1)

let equal a b =
  String.equal a.base b.base && a.q = b.q && a.offset = b.offset && a.nest = b.nest

let pp ppf t =
  Format.fprintf ppf "%s: Q=[" t.base;
  Array.iteri
    (fun k row ->
      if k > 0 then Format.fprintf ppf "; ";
      Array.iteri
        (fun j c ->
          if j > 0 then Format.fprintf ppf " ";
          Format.fprintf ppf "%d" c)
        row)
    t.q;
  Format.fprintf ppf "] O=[";
  Array.iteri
    (fun k o ->
      if k > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%d" o)
    t.offset;
  Format.fprintf ppf "] nest=(%s)" (String.concat "," t.nest)
