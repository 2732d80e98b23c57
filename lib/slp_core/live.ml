open Slp_ir

(* Each entry carries its multiset key, sorted once when it is
   inserted, so membership by multiset is a key comparison. *)
type entry = { ordered : Operand.t list; key : Pack.t }
type t = { mutable entries : entry list; capacity : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Live.create: capacity must be positive";
  { entries = []; capacity }

let entries t = List.map (fun e -> e.ordered) t.entries
let size t = List.length t.entries

let mem_exact t ordered =
  List.exists (fun e -> List.equal Operand.equal ordered e.ordered) t.entries

let mem_multiset t pack = List.exists (fun e -> Pack.equal e.key pack) t.entries

let iter_multiset t pack f =
  List.iter (fun e -> if Pack.equal e.key pack then f e.ordered) t.entries

(* Walks over sorted operand lists. *)
let rec intersects a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: a', y :: b' ->
      let c = Operand.compare x y in
      if c = 0 then true else if c < 0 then intersects a' b else intersects a b'

(* [want] is a sub-multiset of [a] and [b] together. *)
let rec covered want a b =
  match want with
  | [] -> true
  | w :: want' -> (
      let rec skip = function
        | x :: rest when Operand.compare x w < 0 -> skip rest
        | l -> l
      in
      match (skip a, skip b) with
      | x :: a', b when Operand.compare x w = 0 -> covered want' a' b
      | a, y :: b' when Operand.compare y w = 0 -> covered want' a b'
      | _ -> false)

(* An entry sharing no operand with the pack adds nothing to a pair, so
   only sharing entries are paired; one of them covering the pack alone
   still needs some second entry to pair with. *)
let coverable_by_two t pack =
  let pack = Pack.operands pack in
  let sharing =
    List.filter (fun e -> intersects (Pack.operands e.key) pack) t.entries
  in
  let two = match t.entries with _ :: _ :: _ -> true | _ -> false in
  List.exists
    (fun e1 ->
      let k1 = Pack.operands e1.key in
      (two && covered pack k1 [])
      || List.exists
           (fun e2 -> e1 != e2 && covered pack k1 (Pack.operands e2.key))
           sharing)
    sharing

let invalidate t ~defs =
  t.entries <-
    List.filter
      (fun e ->
        not (List.exists (fun d -> List.exists (Operand.may_alias d) e.ordered) defs))
      t.entries

let insert t ordered =
  let key = Pack.of_operands ordered in
  t.entries <-
    { ordered; key } :: List.filter (fun e -> not (Pack.equal e.key key)) t.entries;
  if List.length t.entries > t.capacity then
    t.entries <- List.filteri (fun i _ -> i < t.capacity) t.entries
