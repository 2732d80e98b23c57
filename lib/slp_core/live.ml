(* Slots [0 .. size - 1] hold the entries oldest first, so an insertion
   into a set with room appends.  Each entry keeps its lanes and its
   multiset key (the lanes sorted), both arrays of operand ids handed
   over by the caller, so every question is a walk over ints.  [masks]
   holds each entry's ids as a 62-bit set (bit [id mod 62]): two
   entries whose masks are disjoint share no id, which spares most
   walks of the questions about shared ids. *)
type t = {
  capacity : int;
  mutable size : int;
  lanes : int array array;
  keys : int array array;
  masks : int array;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Live.create: capacity must be positive";
  {
    capacity;
    size = 0;
    lanes = Array.make capacity [||];
    keys = Array.make capacity [||];
    masks = Array.make capacity 0;
  }

let mask (ids : int array) =
  let m = ref 0 in
  for i = 0 to Array.length ids - 1 do
    m := !m lor (1 lsl (ids.(i) mod 62))
  done;
  !m

let capacity t = t.capacity

let clear t =
  Array.fill t.lanes 0 t.size [||];
  Array.fill t.keys 0 t.size [||];
  t.size <- 0

let entries t = List.init t.size (fun i -> t.lanes.(t.size - 1 - i))
let size t = t.size

let rec same_from (a : int array) (b : int array) i =
  i = Array.length a || (a.(i) = b.(i) && same_from a b (i + 1))

let same a b = Array.length a = Array.length b && same_from a b 0

let rec find_in slots t q i = i < t.size && (same slots.(i) q || find_in slots t q (i + 1))
let mem_exact t lanes = find_in t.lanes t lanes 0
let mem_multiset t key = find_in t.keys t key 0

let iter_multiset t key f =
  for i = t.size - 1 downto 0 do
    if same t.keys.(i) key then f t.lanes.(i)
  done

(* Walks over sorted id arrays. *)
let rec intersects (a : int array) (b : int array) i j =
  i < Array.length a
  && j < Array.length b
  &&
  let x = a.(i) and y = b.(j) in
  x = y || if x < y then intersects a b (i + 1) j else intersects a b i (j + 1)

let rec skip (a : int array) w i = if i < Array.length a && a.(i) < w then skip a w (i + 1) else i

(* [want] from index [k] is a sub-multiset of [a] from [i] and [b] from
   [j] together. *)
let rec covered (want : int array) (a : int array) (b : int array) k i j =
  k = Array.length want
  ||
  let w = want.(k) in
  let i = skip a w i and j = skip b w j in
  if i < Array.length a && a.(i) = w then covered want a b (k + 1) (i + 1) j
  else if j < Array.length b && b.(j) = w then covered want a b (k + 1) i (j + 1)
  else false

(* An entry sharing no id with the pack adds nothing to a pair, so only
   sharing entries are paired; one of them covering the pack alone
   still needs some second entry to pair with. *)
let coverable_by_two t pack =
  let pm = mask pack in
  let found = ref false and i = ref 0 in
  while (not !found) && !i < t.size do
    let k1 = t.keys.(!i) and m1 = t.masks.(!i) in
    if m1 land pm <> 0 && intersects k1 pack 0 0 then
      if t.size >= 2 && pm land lnot m1 = 0 && covered pack k1 [||] 0 0 0 then found := true
      else begin
        let j = ref 0 in
        while (not !found) && !j < t.size do
          let k2 = t.keys.(!j) and m2 = t.masks.(!j) in
          if
            !j <> !i
            && m2 land pm <> 0
            && pm land lnot (m1 lor m2) = 0
            && intersects k2 pack 0 0 && covered pack k1 k2 0 0 0
          then found := true;
          incr j
        done
      end;
    incr i
  done;
  !found

let invalidate t clobbered =
  let cm = mask clobbered in
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if t.masks.(i) land cm = 0 || not (intersects t.keys.(i) clobbered 0 0) then begin
      t.lanes.(!kept) <- t.lanes.(i);
      t.keys.(!kept) <- t.keys.(i);
      t.masks.(!kept) <- t.masks.(i);
      incr kept
    end
  done;
  for i = !kept to t.size - 1 do
    t.lanes.(i) <- [||];
    t.keys.(i) <- [||]
  done;
  t.size <- !kept

(* The entry with the same key leaves, else the oldest one when the set
   is full; the entries after it move down one and the new entry goes
   last. *)
let insert t ~lanes ~key =
  let j = ref 0 in
  while !j < t.size && not (same t.keys.(!j) key) do
    incr j
  done;
  let freed = if !j < t.size then !j else if t.size = t.capacity then 0 else t.size in
  let last = if freed = t.size then t.size else t.size - 1 in
  for i = freed to last - 1 do
    t.lanes.(i) <- t.lanes.(i + 1);
    t.keys.(i) <- t.keys.(i + 1);
    t.masks.(i) <- t.masks.(i + 1)
  done;
  t.lanes.(last) <- lanes;
  t.keys.(last) <- key;
  t.masks.(last) <- mask key;
  t.size <- last + 1
