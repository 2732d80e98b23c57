type elimination = Max_degree | Arbitrary

(* The victim's index in the selection, or -1 once no node has an
   edge.  Nodes are numbered owner by owner in ascending cid order and
   all nodes of an owner share its degree, so the node-level rules read
   on owners: [Max_degree] takes the highest degree, ties to the lowest
   cid; [Arbitrary] the lowest cid with an edge. *)
let victim elimination (s : Packgraph.selection) =
  let best = ref (-1) in
  for k = 0 to s.size - 1 do
    if s.mult.(k) > 0 && s.degree.(k) > 0 then begin
      let b = !best in
      if
        b < 0
        ||
        match elimination with
        | Max_degree ->
            s.degree.(k) > s.degree.(b)
            || (s.degree.(k) = s.degree.(b) && s.owners.(k) < s.owners.(b))
        | Arbitrary -> s.owners.(k) < s.owners.(b)
      then best := k
    end
  done;
  !best

(* Greedy conflict elimination: drop one node of the victim owner,
   which takes one edge from each node of a conflicting owner, until
   no edge is left. *)
let rec eliminate ~vp elimination (s : Packgraph.selection) =
  let v = victim elimination s in
  if v >= 0 then begin
    s.mult.(v) <- s.mult.(v) - 1;
    for k = 0 to s.size - 1 do
      if Packgraph.conflict vp s.owners.(v) s.owners.(k) then s.degree.(k) <- s.degree.(k) - 1
    done;
    eliminate ~vp elimination s
  end

let weight ~vp ~elimination ~cand =
  let s = Packgraph.select vp ~cid:cand.Candidate.cid in
  if s.types = 0 then 0.0
  else begin
    eliminate ~vp elimination s;
    (* The reuse of type t is N_t - 1, where N_t counts t among the
       surviving nodes and among the packs of D ∪ {C}.  Every survivor's
       pack and every pack of D ∪ {C} is one of the types, so the sum
       over the types is a sum of counts. *)
    let survivors = ref 0 in
    for k = 0 to s.size - 1 do
      survivors := !survivors + s.mult.(k)
    done;
    float_of_int (!survivors + s.packs - s.types) /. float_of_int s.types
  end
