type t = Const of float | Scalar of string | Elem of string * Affine.t list

let equal a b =
  match (a, b) with
  | Const x, Const y -> Float.equal x y
  | Scalar x, Scalar y -> String.equal x y
  | Elem (x, ix), Elem (y, iy) ->
      String.equal x y
      && List.length ix = List.length iy
      && List.for_all2 Affine.equal ix iy
  | (Const _ | Scalar _ | Elem _), _ -> false

let compare a b =
  match (a, b) with
  | Const x, Const y -> Float.compare x y
  | Const _, (Scalar _ | Elem _) -> -1
  | Scalar _, Const _ -> 1
  | Scalar x, Scalar y -> String.compare x y
  | Scalar _, Elem _ -> -1
  | Elem (x, ix), Elem (y, iy) ->
      let c = String.compare x y in
      if c <> 0 then c else List.compare Affine.compare ix iy
  | Elem _, (Const _ | Scalar _) -> 1

let may_alias a b =
  match (a, b) with
  | Const _, _ | _, Const _ -> false
  | Scalar x, Scalar y -> String.equal x y
  | Scalar _, Elem _ | Elem _, Scalar _ -> false
  | Elem (x, ix), Elem (y, iy) ->
      String.equal x y
      && (List.length ix <> List.length iy
         || not
              (List.exists2
                 (fun a b ->
                   match Affine.diff_const a b with
                   | Some d -> d <> 0
                   | None -> false)
                 ix iy))

(* Row-major linearised offset difference of [b] relative to [a], when
   it is a compile-time constant. *)
let linear_diff ~row_size a b =
  match (a, b) with
  | Elem (x, ix), Elem (y, iy)
    when String.equal x y && List.length ix = List.length iy -> begin
      let dims = row_size x in
      if List.length dims <> List.length ix then None
      else begin
        (* stride of dimension k = product of sizes of dims k+1.. *)
        let rec strides = function
          | [] -> []
          | _ :: rest as l ->
              let s = List.fold_left ( * ) 1 (List.tl l) in
              s :: strides rest
        in
        let strs = strides dims in
        let diffs = List.map2 Affine.diff_const iy ix in
        List.fold_left2
          (fun acc d s ->
            match (acc, d) with
            | Some total, Some d -> Some (total + (d * s))
            | _, _ -> None)
          (Some 0) diffs strs
      end
    end
  | _ -> None

let adjacent_in_memory ~row_size a b =
  match linear_diff ~row_size a b with Some 1 -> true | Some _ | None -> false

let used_vars = function
  | Const _ -> []
  | Scalar v -> [ v ]
  | Elem (_, idxs) -> List.concat_map Affine.vars idxs

let subst_index op v by =
  match op with
  | Const _ | Scalar _ -> op
  | Elem (b, idxs) -> Elem (b, List.map (fun ix -> Affine.subst ix v by) idxs)

let pp ppf = function
  | Const f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Format.fprintf ppf "%d" (int_of_float f)
      else Format.fprintf ppf "%g" f
  | Scalar v -> Format.pp_print_string ppf v
  | Elem (b, idxs) ->
      Format.pp_print_string ppf b;
      List.iter (fun ix -> Format.fprintf ppf "[%a]" Affine.pp ix) idxs

let to_string op = Format.asprintf "%a" pp op
