(* Host-speed calibration.

   The benchmark's host shares its cores: its speed drifts by up to
   ±30% over tens of seconds, more than the bounds a change is judged
   by.  A fixed piece of bench-owned work, timed next to each job,
   measures the host's speed at that moment; job times are reported
   scaled to [reference] seconds of calibration, about its median on
   the 2-core host the bounds were set on.  The work mixes random reads over a 2 MiB array, run
   once untimed so the previous job's cache footprint cannot reach the
   timed run, with short-lived list allocation and sorting: over ten
   single-pass suite_exec runs it cut the spread of jobs/s from 0.14 to
   0.03.  It is bench code, so a change to the program cannot change
   the yardstick. *)

let reference = 0.0035

let words = 1 lsl 18
let data = Float.Array.make words 1.0
let stride = Array.init (1 lsl 16) (fun i -> (i * 40503) land ((1 lsl 16) - 1))

let reads () =
  let s = ref 0.0 in
  for r = 0 to 7 do
    for i = 0 to Array.length stride - 1 do
      s := !s +. Float.Array.unsafe_get data (((Array.unsafe_get stride i * 4) + r) land (words - 1))
    done
  done;
  !s

let allocs () =
  let l = List.sort compare (List.init 20000 (fun i -> (i * 7919) land 0xffff)) in
  List.fold_left ( + ) 0 (List.rev_map succ l)

let measure () =
  ignore (Sys.opaque_identity (reads ()));
  let t0 = Host.now () in
  ignore (Sys.opaque_identity (reads ()));
  ignore (Sys.opaque_identity (allocs ()));
  Host.now () -. t0

(* Seconds measured beside a calibration of [cal] seconds, at
   reference speed. *)
let scale ~cal seconds = seconds *. reference /. cal
