open Slp_ir
module FA = Float.Array

type array_box = {
  data : floatarray;
  base : int;
  dims : int list;
  elem_bytes : int;
}

(* Spill slots live in a single flat arena of [spill_stride] lanes per
   slot instead of a hash table of boxed lane arrays: storing a
   superword is a blit into the arena and reloading is a blit out,
   with no allocation and no hashing on the VM's register-pressure hot
   path.  [spill_lanes.(slot)] records the lane count of the value the
   slot holds, or -1 when the slot was never stored (reloading such a
   slot traps, like the hash-table miss used to). *)
type t = {
  arrays : (string, array_box) Hashtbl.t;
  scalar_addrs : (string, int) Hashtbl.t;
  scalar_slots : (string, int) Hashtbl.t;
  mutable scalar_data : floatarray;
  mutable scalar_count : int;
  scalar_base : int;
  spill_base : int;
  mutable spill_data : floatarray;
  mutable spill_lanes : int array;
  mutable spill_stride : int;
}

let align a n = (a + n - 1) / n * n

(* [create] and [layout]: [store n] is an [n]-element array's backing
   store. *)
let build ~store ?(scalar_layout = []) ~env () =
  let arrays = Hashtbl.create 16 in
  let brk = ref 64 in
  List.iter
    (fun (name, info) ->
      let total = List.fold_left ( * ) 1 info.Env.dims in
      let elem_bytes = Types.bytes info.Env.elem_ty in
      let base = align !brk 64 in
      brk := base + (total * elem_bytes);
      Hashtbl.replace arrays name
        { data = store total; base; dims = info.Env.dims; elem_bytes })
    (Env.arrays env);
  let scalar_base = align !brk 64 in
  let scalar_addrs = Hashtbl.create 16 in
  (* Validate and apply the explicit layout. *)
  let used = Hashtbl.create 16 in
  List.iter
    (fun (name, off) ->
      if off < 0 || off mod 8 <> 0 then
        invalid_arg "Memory.create: scalar offsets must be non-negative multiples of 8";
      if Hashtbl.mem used off then invalid_arg "Memory.create: duplicate scalar offset";
      Hashtbl.replace used off ();
      Hashtbl.replace scalar_addrs name (scalar_base + off))
    scalar_layout;
  let next = ref (List.fold_left (fun acc (_, off) -> max acc (off + 8)) 0 scalar_layout) in
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem scalar_addrs name) then begin
        Hashtbl.replace scalar_addrs name (scalar_base + !next);
        next := !next + 8
      end)
    (Env.scalars env);
  (* The scalar area is sized exactly from the declared scalars plus
     the explicit layout, so the spill segment can never alias a
     scalar address. *)
  let scalar_area = !next in
  let spill_base = align (scalar_base + scalar_area) 64 in
  Hashtbl.iter
    (fun name addr ->
      if addr + 8 > scalar_base + scalar_area then
        invalid_arg
          (Printf.sprintf "Memory.create: scalar %s overflows the scalar area" name))
    scalar_addrs;
  let scalar_slots = Hashtbl.create 16 in
  let n = List.fold_left (fun i (name, _) ->
      Hashtbl.replace scalar_slots name i;
      i + 1)
      0 (Env.scalars env)
  in
  {
    arrays;
    scalar_addrs;
    scalar_slots;
    scalar_data = FA.make (max 8 n) 0.0;
    scalar_count = n;
    scalar_base;
    spill_base;
    spill_data = FA.make 0 0.0;
    spill_lanes = [||];
    spill_stride = 8;
  }

let create ?scalar_layout ~env () = build ~store:(fun n -> FA.make n 0.0) ?scalar_layout ~env ()
let layout ?scalar_layout ~env () = build ~store:(fun _ -> FA.create 0) ?scalar_layout ~env ()

let box t name =
  match Hashtbl.find_opt t.arrays name with
  | Some b -> b
  | None -> Trap.unknown_array ~array:name ()

let init_arrays t ~seed =
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.arrays [] |> List.sort String.compare
  in
  List.iter
    (fun name ->
      let b = box t name in
      let rng = Slp_util.Prng.create (seed lxor Hashtbl.hash name) in
      Slp_util.Prng.fill_floats rng 1.0 b.data)
    names

let load t name idx =
  let b = box t name in
  if idx < 0 || idx >= FA.length b.data then
    Trap.oob ~array:name ~index:idx ~bound:(FA.length b.data) ();
  FA.unsafe_get b.data idx

let store t name idx v =
  let b = box t name in
  if idx < 0 || idx >= FA.length b.data then
    Trap.oob ~array:name ~index:idx ~bound:(FA.length b.data) ();
  FA.unsafe_set b.data idx v

let scalar_slot t name =
  match Hashtbl.find_opt t.scalar_slots name with
  | Some s -> s
  | None ->
      let s = t.scalar_count in
      if s >= FA.length t.scalar_data then begin
        let grown = FA.make (2 * FA.length t.scalar_data) 0.0 in
        FA.blit t.scalar_data 0 grown 0 (FA.length t.scalar_data);
        t.scalar_data <- grown
      end;
      Hashtbl.replace t.scalar_slots name s;
      t.scalar_count <- s + 1;
      s

let scalar t name =
  match Hashtbl.find_opt t.scalar_slots name with
  | Some s -> FA.get t.scalar_data s
  | None -> 0.0

let set_scalar t name v = FA.set t.scalar_data (scalar_slot t name) v
let scalar_values t = t.scalar_data
let array_base t name = (box t name).base

let scalar_addr t name =
  match Hashtbl.find_opt t.scalar_addrs name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Memory.scalar_addr: unknown scalar %s" name)

let elem_bytes t name = (box t name).elem_bytes

let flat_index t name idxs =
  let b = box t name in
  if List.length idxs <> List.length b.dims then
    Trap.rank_mismatch ~array:name ();
  List.fold_left2
    (fun acc i d ->
      if i < 0 || i >= d then Trap.oob ~array:name ~index:i ~bound:d ();
      (acc * d) + i)
    0 idxs b.dims

let array_values t name = (box t name).data
let dims t name = (box t name).dims

(* -- spill arena ---------------------------------------------------- *)

let spill_addr t ~slot = t.spill_base + (slot * 64)

(* Grow the arena to hold [slot] at [lanes] lanes.  Widening the
   stride re-lays existing rows out at the new pitch so live values
   survive; both growths double to amortise. *)
let ensure_spill t ~slot ~lanes =
  let cap = Array.length t.spill_lanes in
  if lanes > t.spill_stride then begin
    let stride = max lanes (2 * t.spill_stride) in
    let data = FA.make (max cap 1 * stride) 0.0 in
    for s = 0 to cap - 1 do
      if t.spill_lanes.(s) >= 0 then
        FA.blit t.spill_data (s * t.spill_stride) data (s * stride)
          t.spill_lanes.(s)
    done;
    t.spill_data <- data;
    t.spill_stride <- stride
  end;
  if slot >= cap then begin
    let cap' = max (slot + 1) (max 16 (2 * cap)) in
    let data = FA.make (cap' * t.spill_stride) 0.0 in
    FA.blit t.spill_data 0 data 0 (cap * t.spill_stride);
    let lanes' = Array.make cap' (-1) in
    Array.blit t.spill_lanes 0 lanes' 0 cap;
    t.spill_data <- data;
    t.spill_lanes <- lanes'
  end

let reserve_spills t ~slots ~max_lanes =
  if slots > 0 then ensure_spill t ~slot:(slots - 1) ~lanes:(max 1 max_lanes)

let spill_lanes_of t ~slot =
  if slot < 0 || slot >= Array.length t.spill_lanes then -1
  else Array.unsafe_get t.spill_lanes slot

let spill_store t ~slot lanes =
  let n = Array.length lanes in
  if slot >= Array.length t.spill_lanes || n > t.spill_stride then
    ensure_spill t ~slot ~lanes:n;
  let base = slot * t.spill_stride in
  for k = 0 to n - 1 do
    FA.unsafe_set t.spill_data (base + k) (Array.unsafe_get lanes k)
  done;
  t.spill_lanes.(slot) <- n

let spill_load t ~slot =
  let lanes = spill_lanes_of t ~slot in
  if lanes < 0 then Trap.unset_spill ~slot ();
  let base = slot * t.spill_stride in
  Array.init lanes (fun k -> FA.unsafe_get t.spill_data (base + k))

(* Identical NaNs/infinities count as equal: both executions
   overflowing the same way is agreement.  Inlined: a call would box
   both floats of every element [same_contents] compares. *)
let[@inline] close x y = Float.equal x y || Float.abs (x -. y) <= 1e-9

let same_contents a b =
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) a.arrays [] |> List.sort String.compare
  in
  List.for_all
    (fun name ->
      match Hashtbl.find_opt b.arrays name with
      | None -> false
      | Some bb ->
          let ba = box a name in
          FA.length ba.data = FA.length bb.data
          &&
          let rec scan i =
            if i >= FA.length ba.data then true
            else close (FA.unsafe_get ba.data i) (FA.unsafe_get bb.data i) && scan (i + 1)
          in
          scan 0)
    names

let same_scalars ~names a b = List.for_all (fun v -> close (scalar a v) (scalar b v)) names

let equal a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  (* A scalar set in only one memory reads 0 in the other. *)
  let scalars_agree_over t =
    Hashtbl.fold
      (fun name _ ok -> ok && same (scalar a name) (scalar b name))
      t.scalar_slots true
  in
  scalars_agree_over a && scalars_agree_over b
  && Hashtbl.length a.arrays = Hashtbl.length b.arrays
  && Hashtbl.fold
       (fun name ba ok ->
         ok
         &&
         match Hashtbl.find_opt b.arrays name with
         | None -> false
         | Some bb ->
             let n = FA.length ba.data in
             n = FA.length bb.data
             &&
             let rec scan i =
               i >= n
               || (same (FA.unsafe_get ba.data i) (FA.unsafe_get bb.data i)
                  && scan (i + 1))
             in
             scan 0)
       a.arrays true
