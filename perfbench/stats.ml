(* Summary statistics for timings and exact counters.

   Percentiles use the nearest-rank definition: the q-th percentile of
   n sorted samples is the sample at 1-based rank ceil (q * n).  A
   percentile is reportable only when at least [min_beyond] samples lie
   beyond its rank, so a tail figure always rests on a tail of real
   samples rather than on one or two outliers. *)

let min_beyond = 10

let rank ~q n =
  if n <= 0 then 0 else max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n -. 1e-9))))

let beyond ~q n = n - rank ~q n

let reportable ~q n = n > 0 && (q <= 0.5 || beyond ~q n >= min_beyond)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile ~q xs =
  let a = sorted xs in
  let n = Array.length a in
  if reportable ~q n then Some a.(rank ~q n - 1) else None

(* The conventional median (mean of the middle two for even n), used
   for medians of repeated whole measurements such as set-up times. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      if List.exists (fun x -> x <= 0.0) xs then invalid_arg "Stats.geomean: non-positive sample";
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
