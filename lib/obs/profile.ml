type key = Stmt of int | Pack of int list | Setup | Op of string

type stat = {
  mutable centicycles : int;
  mutable count : int;
  level_hits : int array;
  mutable memory_accesses : int;
}

type range = { name : string; base : int; limit : int; rstat : stat }

type t = {
  stats : (key, stat) Hashtbl.t;
  mutable order : key list; (* insertion order, reversed *)
  mutable ranges : range list; (* reversed registration order *)
  mutable current : stat option;
}

let max_levels = 4

let fresh_stat () =
  { centicycles = 0; count = 0; level_hits = Array.make max_levels 0;
    memory_accesses = 0 }

let create () =
  { stats = Hashtbl.create 64; order = []; ranges = []; current = None }

let key_name = function
  | Stmt i -> Printf.sprintf "stmt:%d" i
  | Pack ids ->
      Printf.sprintf "pack:[%s]"
        (String.concat ";" (List.map string_of_int ids))
  | Setup -> "setup"
  | Op name -> Printf.sprintf "op:%s" name

let stat t key =
  match Hashtbl.find_opt t.stats key with
  | Some s -> s
  | None ->
      let s = fresh_stat () in
      Hashtbl.add t.stats key s;
      t.order <- key :: t.order;
      s

let add s ~centicycles =
  s.centicycles <- s.centicycles + centicycles;
  s.count <- s.count + 1

let set_current t cur = t.current <- cur

let bump s level =
  if level < max_levels then s.level_hits.(level) <- s.level_hits.(level) + 1
  else s.memory_accesses <- s.memory_accesses + 1

let note_access t ~addr ~level =
  (match t.current with Some s -> bump s level | None -> ());
  let rec find = function
    | [] -> ()
    | r :: rest ->
        if addr >= r.base && addr < r.limit then bump r.rstat level
        else find rest
  in
  find t.ranges

let register_array t ~name ~base ~bytes =
  t.ranges <-
    { name; base; limit = base + bytes; rstat = fresh_stat () } :: t.ranges

(* Centicycles in cycles, as [Counters] converts them. *)
let cycles c = float_of_int c /. 100.0

let total_cycles t =
  cycles (Hashtbl.fold (fun _ s acc -> acc + s.centicycles) t.stats 0)

let top ?(n = 10) t =
  let all = List.rev_map (fun k -> (k, Hashtbl.find t.stats k)) t.order in
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> Int.compare b.centicycles a.centicycles) all
  in
  List.filteri (fun i _ -> i < n) sorted

let arrays t =
  List.rev_map (fun r -> (r.name, r.rstat)) t.ranges

let hits s =
  Array.fold_left ( + ) 0 s.level_hits

let report ?(n = 10) ppf t =
  let total = total_cycles t in
  Format.fprintf ppf "@[<v>hot statements (top %d of %d keys):@," n
    (Hashtbl.length t.stats);
  List.iter
    (fun (k, s) ->
      let c = cycles s.centicycles in
      let share = if total > 0.0 then 100.0 *. c /. total else 0.0 in
      Format.fprintf ppf
        "  %-24s %12.1f cycles  %5.1f%%  runs=%d  hits=%d  mem=%d@,"
        (key_name k) c share s.count (hits s) s.memory_accesses)
    (top ~n t);
  Format.fprintf ppf "total attributed cycles: %.1f@," total;
  (match arrays t with
  | [] -> ()
  | arrs ->
      Format.fprintf ppf "arrays:@,";
      List.iter
        (fun (name, s) ->
          let levels =
            String.concat " "
              (List.mapi
                 (fun i h -> Printf.sprintf "L%d=%d" (i + 1) h)
                 (Array.to_list s.level_hits))
          in
          Format.fprintf ppf "  %-16s %s mem=%d@," name levels
            s.memory_accesses)
        arrs);
  Format.fprintf ppf "@]"

let stat_json s =
  Json.Obj
    [
      ("cycles", Json.Num (cycles s.centicycles));
      ("count", Json.Num (float_of_int s.count));
      ( "level_hits",
        Json.Arr
          (Array.to_list
             (Array.map (fun h -> Json.Num (float_of_int h)) s.level_hits)) );
      ("memory_accesses", Json.Num (float_of_int s.memory_accesses));
    ]

let to_json t =
  let keyed =
    List.rev_map
      (fun k ->
        let s = Hashtbl.find t.stats k in
        match stat_json s with
        | Json.Obj fields -> Json.Obj (("key", Json.Str (key_name k)) :: fields)
        | other -> other)
      t.order
  in
  let arrs =
    List.map
      (fun (name, s) ->
        match stat_json s with
        | Json.Obj fields -> Json.Obj (("array", Json.Str name) :: fields)
        | other -> other)
      (arrays t)
  in
  Json.Obj
    [
      ("total_cycles", Json.Num (total_cycles t));
      ("statements", Json.Arr keyed);
      ("arrays", Json.Arr arrs);
    ]
