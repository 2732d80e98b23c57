(* Span trees rebuilt from flat begin/end trace events, and the
   self-time rule the per-layer metrics use: a span's self time is its
   duration minus the part of that interval its direct children cover
   (overlapping children are counted once). *)

type t = {
  name : string;
  start : float;  (** seconds *)
  stop : float;
  args : (string * string) list;
  children : t list;  (** in start order *)
}

let duration s = s.stop -. s.start

let self_time s =
  let intervals =
    List.filter_map
      (fun c ->
        let a = Float.max s.start c.start and b = Float.min s.stop c.stop in
        if b > a then Some (a, b) else None)
      s.children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, neg_infinity) intervals
  in
  duration s -. covered

let arg s key = List.assoc_opt key s.args

(* One thread's chronological events, [(name, ph, ts, args)] with
   [ph] 'B' or 'E', into root spans.  Unbalanced input is an error:
   the traces this reads are validated as balanced first. *)
let of_events events =
  let finish (name, start, args, kids) stop =
    { name; start; stop; args; children = List.rev kids }
  in
  let rec go stack roots = function
    | [] ->
        if stack <> [] then invalid_arg "Spans.of_events: unclosed span";
        List.rev roots
    | (name, 'B', ts, args) :: rest -> go ((name, ts, args, []) :: stack) roots rest
    | (name, 'E', ts, _) :: rest -> (
        match stack with
        | ((open_name, _, _, _) as top) :: stack' when open_name = name -> (
            let span = finish top ts in
            match stack' with
            | (pn, ps, pa, pk) :: up -> go ((pn, ps, pa, span :: pk) :: up) roots rest
            | [] -> go [] (span :: roots) rest)
        | _ -> invalid_arg ("Spans.of_events: unmatched end of " ^ name))
    | (name, _, _, _) :: _ -> invalid_arg ("Spans.of_events: bad phase for " ^ name)
  in
  go [] [] events

let rec iter f s =
  f s;
  List.iter (iter f) s.children

(* A merged Chrome trace-event document (as [slpd serve --trace]
   writes it) into per-thread root spans, keyed by tid.  Timestamps are
   microseconds in the file and seconds here. *)
let of_chrome json =
  let open Slp_obs.Json in
  let events =
    match member "traceEvents" json with
    | Some (Arr evs) -> evs
    | _ -> invalid_arg "Spans.of_chrome: no traceEvents"
  in
  let rows = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str k = match member k ev with Some (Str s) -> s | _ -> "" in
      let num k = match member k ev with Some (Num n) -> n | _ -> 0.0 in
      let args =
        match member "args" ev with
        | Some (Obj kvs) ->
            List.filter_map (function k, Str v -> Some (k, v) | _ -> None) kvs
        | _ -> []
      in
      let ph = match str "ph" with "B" -> 'B' | "E" -> 'E' | _ -> '?' in
      let tid = int_of_float (num "tid") in
      let row = Option.value (Hashtbl.find_opt rows tid) ~default:[] in
      Hashtbl.replace rows tid ((str "name", ph, num "ts" /. 1e6, args) :: row))
    events;
  Hashtbl.fold (fun tid row acc -> (tid, of_events (List.rev row)) :: acc) rows []
  |> List.sort compare
