type t = { label : string; stmts : Stmt.t list }

let make ?(label = "bb") stmts =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (s : Stmt.t) ->
      if Hashtbl.mem seen s.Stmt.id then
        invalid_arg (Printf.sprintf "Block.make: duplicate statement id %d" s.Stmt.id);
      Hashtbl.replace seen s.Stmt.id ())
    stmts;
  { label; stmts }

let of_rhs ?label pairs =
  make ?label
    (List.mapi (fun i (lhs, rhs) -> Stmt.make ~id:(i + 1) ~lhs ~rhs) pairs)

let find b id = List.find (fun (s : Stmt.t) -> s.Stmt.id = id) b.stmts
let stmt_ids b = List.map (fun (s : Stmt.t) -> s.Stmt.id) b.stmts
let size b = List.length b.stmts

let position b id =
  let rec go i = function
    | [] -> raise Not_found
    | (s : Stmt.t) :: _ when s.Stmt.id = id -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 b.stmts

let depends b p q =
  let ip = position b p and iq = position b q in
  if ip >= iq then invalid_arg "Block.depends: first statement must precede second";
  Stmt.depends (find b p) (find b q)

let dep_pairs b =
  let rec go acc = function
    | [] -> List.rev acc
    | (s : Stmt.t) :: rest ->
        let acc =
          List.fold_left
            (fun acc (s' : Stmt.t) ->
              if Stmt.depends s s' then (s.Stmt.id, s'.Stmt.id) :: acc else acc)
            acc rest
        in
        go acc rest
  in
  go [] b.stmts

let independent b p q =
  let ip = position b p and iq = position b q in
  if ip = iq then false
  else
    let first, second = if ip < iq then (p, q) else (q, p) in
    not (Stmt.depends (find b first) (find b second))

let dedup_sorted l = List.sort_uniq String.compare l

let scalar_uses b =
  List.concat_map
    (fun (s : Stmt.t) ->
      List.filter_map
        (function Operand.Scalar v -> Some v | Operand.Const _ | Operand.Elem _ -> None)
        (Stmt.uses s)
      @ List.concat_map Operand.used_vars
          (match s.Stmt.lhs with Operand.Elem _ as e -> [ e ] | _ -> []))
    b.stmts
  |> dedup_sorted

let scalar_defs b =
  List.filter_map
    (fun (s : Stmt.t) ->
      match s.Stmt.lhs with
      | Operand.Scalar v -> Some v
      | Operand.Const _ | Operand.Elem _ -> None)
    b.stmts
  |> dedup_sorted

let pp ppf b =
  Format.fprintf ppf "@[<v>%s:@," b.label;
  List.iter (fun s -> Format.fprintf ppf "  %a@," Stmt.pp s) b.stmts;
  Format.fprintf ppf "@]"

let to_string b = Format.asprintf "%a" pp b
