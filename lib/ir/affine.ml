type t = { vars : string array; coeffs : int array; const : int }
(* Invariant: [vars] is strictly ascending by [String.compare], [coeffs]
   is parallel to it and holds no zero.  Equal expressions are therefore
   structurally equal, so polymorphic [=] agrees with [equal]. *)

(* The canonical form of any term list: sorted by variable, repeats
   summed, zeros dropped. *)
let make terms c =
  let rec sum = function
    | (v, k) :: (w, k') :: rest when String.equal v w -> sum ((v, k + k') :: rest)
    | (_, 0) :: rest -> sum rest
    | t :: rest -> t :: sum rest
    | [] -> []
  in
  let terms = sum (List.stable_sort (fun (v, _) (w, _) -> String.compare v w) terms) in
  { vars = Array.of_list (List.map fst terms); coeffs = Array.of_list (List.map snd terms); const = c }

let const c = make [] c
let var ?(coeff = 1) v = make [ (v, coeff) ] 0
let terms a = List.init (Array.length a.vars) (fun i -> (a.vars.(i), a.coeffs.(i)))
let add a b = make (terms a @ terms b) (a.const + b.const)
let scale k a = make (List.map (fun (v, c) -> (v, k * c)) (terms a)) (k * a.const)
let neg a = scale (-1) a
let sub a b = add a (neg b)
let const_part a = a.const
let length a = Array.length a.vars
let var_at a i = a.vars.(i)
let coeff_at a i = a.coeffs.(i)

let rec coeff_from a v i =
  if i = Array.length a.vars then 0
  else if String.equal a.vars.(i) v then a.coeffs.(i)
  else coeff_from a v (i + 1)

let coeff a v = coeff_from a v 0

let is_const a = Array.length a.vars = 0
let to_const a = if is_const a then Some a.const else None
let vars a = Array.to_list a.vars

(* [equal], [compare] and [diff_const] allocate nothing: they walk the
   two term arrays with top-level recursive functions, no closure. *)
let rec same_terms_from a b i =
  i = Array.length a.vars
  || a.coeffs.(i) = b.coeffs.(i)
     && String.equal a.vars.(i) b.vars.(i)
     && same_terms_from a b (i + 1)

let same_terms a b =
  a == b || (Array.length a.vars = Array.length b.vars && same_terms_from a b 0)

let equal a b = a.const = b.const && same_terms a b

(* Operand interning and every pack order rest on this order: the
   constant, then the terms in variable order, each by variable then
   coefficient, a proper prefix first. *)
let rec compare_from a b i =
  let na = Array.length a.vars and nb = Array.length b.vars in
  if i = na then if i = nb then 0 else -1
  else if i = nb then 1
  else
    let c = String.compare a.vars.(i) b.vars.(i) in
    if c <> 0 then c
    else
      let c = Int.compare a.coeffs.(i) b.coeffs.(i) in
      if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  let c = Int.compare a.const b.const in
  if c <> 0 then c else compare_from a b 0

let subst e v by =
  match coeff e v with
  | 0 -> e
  | k ->
      add (make (List.filter (fun (w, _) -> not (String.equal w v)) (terms e)) e.const) (scale k by)

let eval e env =
  let acc = ref e.const in
  for i = 0 to Array.length e.vars - 1 do
    acc := !acc + (e.coeffs.(i) * env e.vars.(i))
  done;
  !acc

let diff_const a b = if same_terms a b then Some (a.const - b.const) else None

let pp ppf a =
  let ts = terms a in
  if ts = [] then Format.fprintf ppf "%d" a.const
  else begin
    List.iteri
      (fun i (v, k) ->
        if i = 0 then
          if k = 1 then Format.fprintf ppf "%s" v
          else if k = -1 then Format.fprintf ppf "-%s" v
          else Format.fprintf ppf "%d*%s" k v
        else if k = 1 then Format.fprintf ppf "+%s" v
        else if k = -1 then Format.fprintf ppf "-%s" v
        else if k > 0 then Format.fprintf ppf "+%d*%s" k v
        else Format.fprintf ppf "-%d*%s" (-k) v)
      ts;
    if a.const > 0 then Format.fprintf ppf "+%d" a.const
    else if a.const < 0 then Format.fprintf ppf "%d" a.const
  end

let to_string a = Format.asprintf "%a" pp a
