type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* The splitmix64 output function of state [z]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* A 53-bit draw scaled to [0, bound). *)
let[@inline] to_float bound z =
  bound *. (Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0 (* 2^53 *))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound = to_float bound (next_int64 t)

let fill_floats t bound a =
  (* The state stays in a local, so no draw boxes an [int64] or a
     float. *)
  let state = ref t.state in
  for i = 0 to Float.Array.length a - 1 do
    state := Int64.add !state golden;
    Float.Array.unsafe_set a i (to_float bound (mix !state))
  done;
  t.state <- !state

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = { state = next_int64 t }
