let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let byte h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

let string_into h s =
  let h = ref h in
  String.iter (fun c -> h := byte !h c) s;
  !h

let hex_digits = "0123456789abcdef"

let hex_into h v c =
  (* The most significant non-zero nibble, or nibble 0 for [v = 0]. *)
  let top = ref 15 in
  while !top > 0 && Int64.equal (Int64.shift_right_logical v (4 * !top)) 0L do
    decr top
  done;
  let h = ref h in
  for k = !top downto 0 do
    let d = Int64.to_int (Int64.logand (Int64.shift_right_logical v (4 * k)) 0xfL) in
    h := byte !h (String.unsafe_get hex_digits d)
  done;
  byte !h c

let hash64 s = string_into offset_basis s

(* Length framing: hash the decimal length, a ':' separator, then the
   bytes, so concatenation cannot alias across field boundaries. *)
let combine h s =
  let h = string_into h (string_of_int (String.length s)) in
  let h = byte h ':' in
  string_into h s

let hash_fields fields = List.fold_left combine offset_basis fields

let to_hex h = Printf.sprintf "%016Lx" h

let of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v -> Some v
    | None -> None
