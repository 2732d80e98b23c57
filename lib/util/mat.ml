type t = { m : Rat.t array array }

let make rows cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.make: empty matrix";
  { m = Array.init rows (fun i -> Array.init cols (fun j -> f i j)) }

let of_int_array a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_int_array: empty";
  let cols = Array.length a.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_int_array: ragged")
    a;
  make rows cols (fun i j -> Rat.of_int a.(i).(j))

let rows t = Array.length t.m
let cols t = Array.length t.m.(0)
let get t i j = t.m.(i).(j)
let identity n = make n n (fun i j -> if i = j then Rat.one else Rat.zero)

let mul a b =
  if cols a <> rows b then invalid_arg "Mat.mul: dimension mismatch";
  let k = cols a in
  make (rows a) (cols b) (fun i j ->
      let acc = ref Rat.zero in
      for x = 0 to k - 1 do
        acc := Rat.add !acc (Rat.mul (get a i x) (get b x j))
      done;
      !acc)

let mul_vec a v =
  if cols a <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init (rows a) (fun i ->
      let acc = ref Rat.zero in
      for j = 0 to cols a - 1 do
        acc := Rat.add !acc (Rat.mul (get a i j) v.(j))
      done;
      !acc)

let equal a b =
  rows a = rows b && cols a = cols b
  &&
  let ok = ref true in
  for i = 0 to rows a - 1 do
    for j = 0 to cols a - 1 do
      if not (Rat.equal (get a i j) (get b i j)) then ok := false
    done
  done;
  !ok

(* Gauss-Jordan elimination over an augmented copy.  Returns the
   reduced augmentation, or None if a pivot cannot be found. *)
let gauss_jordan a aug_cols aug =
  let n = rows a in
  if cols a <> n then None
  else begin
    let w = n + aug_cols in
    let work =
      Array.init n (fun i ->
          Array.init w (fun j -> if j < n then get a i j else aug i (j - n)))
    in
    let singular = ref false in
    (for col = 0 to n - 1 do
       if not !singular then begin
         (* Find a pivot row. *)
         let pivot = ref (-1) in
         for r = col to n - 1 do
           if !pivot = -1 && not (Rat.is_zero work.(r).(col)) then pivot := r
         done;
         if !pivot = -1 then singular := true
         else begin
           let p = !pivot in
           if p <> col then begin
             let tmp = work.(p) in
             work.(p) <- work.(col);
             work.(col) <- tmp
           end;
           let inv = Rat.div Rat.one work.(col).(col) in
           for j = 0 to w - 1 do
             work.(col).(j) <- Rat.mul work.(col).(j) inv
           done;
           for r = 0 to n - 1 do
             if r <> col && not (Rat.is_zero work.(r).(col)) then begin
               let factor = work.(r).(col) in
               for j = 0 to w - 1 do
                 work.(r).(j) <-
                   Rat.sub work.(r).(j) (Rat.mul factor work.(col).(j))
               done
             end
           done
         end
       end
     done);
    if !singular then None
    else Some (make n aug_cols (fun i j -> work.(i).(j + n)))
  end

let inverse a =
  if rows a <> cols a then None
  else gauss_jordan a (rows a) (fun i j -> if i = j then Rat.one else Rat.zero)

let determinant a =
  let n = rows a in
  if cols a <> n then invalid_arg "Mat.determinant: non-square";
  let work = Array.init n (fun i -> Array.init n (fun j -> get a i j)) in
  let det = ref Rat.one in
  let singular = ref false in
  for col = 0 to n - 1 do
    if not !singular then begin
      let pivot = ref (-1) in
      for r = col to n - 1 do
        if !pivot = -1 && not (Rat.is_zero work.(r).(col)) then pivot := r
      done;
      if !pivot = -1 then singular := true
      else begin
        let p = !pivot in
        if p <> col then begin
          let tmp = work.(p) in
          work.(p) <- work.(col);
          work.(col) <- tmp;
          det := Rat.neg !det
        end;
        det := Rat.mul !det work.(col).(col);
        let inv = Rat.div Rat.one work.(col).(col) in
        for r = col + 1 to n - 1 do
          if not (Rat.is_zero work.(r).(col)) then begin
            let factor = Rat.mul work.(r).(col) inv in
            for j = col to n - 1 do
              work.(r).(j) <- Rat.sub work.(r).(j) (Rat.mul factor work.(col).(j))
            done
          end
        done
      end
    end
  done;
  if !singular then Rat.zero else !det

let solve a b =
  if rows a <> Array.length b then None
  else
    gauss_jordan a 1 (fun i _ -> b.(i))
    |> Option.map (fun sol -> Array.init (rows a) (fun i -> get sol i 0))

let drop_last_row_col a =
  if rows a < 2 || cols a < 2 then invalid_arg "Mat.drop_last_row_col: too small";
  make (rows a - 1) (cols a - 1) (fun i j -> get a i j)

let row a i = Array.init (cols a) (fun j -> get a i j)
let col a j = Array.init (rows a) (fun i -> get a i j)

let pp ppf a =
  Format.fprintf ppf "@[<v>";
  for i = 0 to rows a - 1 do
    Format.fprintf ppf "[";
    for j = 0 to cols a - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Rat.pp ppf (get a i j)
    done;
    Format.fprintf ppf "]";
    if i < rows a - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
