(* Cycle detection on dense directed graphs.  See graph.mli. *)

let acyclic succs =
  let n = Array.length succs in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) succs;
  let rec drain seen = function
    | [] -> seen = n
    | u :: ready ->
        drain (seen + 1)
          (List.fold_left
             (fun ready v ->
               indeg.(v) <- indeg.(v) - 1;
               if indeg.(v) = 0 then v :: ready else ready)
             ready succs.(u))
  in
  drain 0 (List.filter (fun u -> indeg.(u) = 0) (List.init n Fun.id))
