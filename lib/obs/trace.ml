type event = {
  name : string;
  ph : char; (* 'B' or 'E' *)
  ts : float; (* Clock seconds; rebased to µs on export *)
  args : (string * string) list;
}

type t = {
  pid : int;
  tid : int;
  mutable events : event list; (* reverse order *)
  mutable depth : int;
}

let create ?(pid = 1) ?(tid = 1) () = { pid; tid; events = []; depth = 0 }

let push t ev = t.events <- ev :: t.events

let begin_span t ?(args = []) name =
  push t { name; ph = 'B'; ts = Clock.now (); args };
  t.depth <- t.depth + 1

let end_span t name =
  push t { name; ph = 'E'; ts = Clock.now (); args = [] };
  t.depth <- t.depth - 1

let span t ?(args = []) name f =
  begin_span t ~args name;
  Fun.protect ~finally:(fun () -> end_span t name) f

let balanced t =
  (* Replay in chronological order against a stack. *)
  let rec go stack = function
    | [] -> stack = []
    | ev :: rest -> (
        match ev.ph with
        | 'B' -> go (ev.name :: stack) rest
        | 'E' -> (
            match stack with
            | top :: stack' when top = ev.name -> go stack' rest
            | _ -> false)
        | _ -> false)
  in
  go [] (List.rev t.events)

let event_count t = List.length t.events

let events t =
  List.rev_map (fun ev -> (ev.name, ev.ph, ev.ts, ev.args)) t.events

(* Rows are buffers of one document, each under its own pid/tid;
   timestamps are rebased to the earliest first event of any row, so
   the rows stay aligned. *)
let rows_to_json rows =
  let rows = List.map (fun t -> (t, List.rev t.events)) rows in
  let t0 =
    List.fold_left
      (fun acc (_, events) ->
        match events with ev :: _ -> Float.min acc ev.ts | [] -> acc)
      Float.infinity rows
  in
  let t0 = if t0 = Float.infinity then 0.0 else t0 in
  let event_json t ev =
    let base =
      [
        ("name", Json.Str ev.name);
        ("ph", Json.Str (String.make 1 ev.ph));
        ("ts", Json.Num ((ev.ts -. t0) *. 1e6));
        ("pid", Json.Num (float_of_int t.pid));
        ("tid", Json.Num (float_of_int t.tid));
      ]
    in
    let args =
      match ev.args with
      | [] -> []
      | kvs ->
          [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ]
    in
    Json.Obj (base @ args)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.concat_map (fun (t, events) -> List.map (event_json t) events) rows)
      );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_rows rows path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (rows_to_json rows));
      output_char oc '\n')

let to_chrome_json t = Json.to_string (rows_to_json [ t ])
let write_file t path = write_rows [ t ] path

let validate_chrome_json s =
  match Json.parse s with
  | Error e -> Error e
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | None -> Error "missing traceEvents field"
      | Some (Json.Arr events) -> (
          (* One span stack and timestamp watermark per (pid, tid). *)
          let stacks : (float * float, string list * float) Hashtbl.t =
            Hashtbl.create 4
          in
          let err = ref None in
          let fail i msg =
            if !err = None then err := Some (Printf.sprintf "event %d: %s" i msg)
          in
          List.iteri
            (fun i ev ->
              if !err = None then
                let str k =
                  match Json.member k ev with
                  | Some (Json.Str v) -> Some v
                  | _ -> None
                in
                let num k =
                  match Json.member k ev with
                  | Some (Json.Num v) -> Some v
                  | _ -> None
                in
                match (str "name", str "ph", num "ts", num "pid", num "tid")
                with
                | Some name, Some ph, Some ts, Some pid, Some tid -> (
                    let key = (pid, tid) in
                    let stack, last_ts =
                      Option.value (Hashtbl.find_opt stacks key)
                        ~default:([], neg_infinity)
                    in
                    if ts < last_ts then fail i "timestamp decreased"
                    else
                      match ph with
                      | "B" -> Hashtbl.replace stacks key (name :: stack, ts)
                      | "E" -> (
                          match stack with
                          | top :: rest when top = name ->
                              Hashtbl.replace stacks key (rest, ts)
                          | top :: _ ->
                              fail i
                                (Printf.sprintf
                                   "E %S does not match open span %S" name top)
                          | [] ->
                              fail i
                                (Printf.sprintf "E %S with no open span" name))
                      | _ -> fail i (Printf.sprintf "unsupported phase %S" ph))
                | _ -> fail i "missing or mistyped name/ph/ts/pid/tid")
            events;
          match !err with
          | Some e -> Error e
          | None ->
              Hashtbl.fold
                (fun (_, tid) (stack, _) acc ->
                  match (acc, stack) with
                  | Error _, _ | _, [] -> acc
                  | Ok _, top :: _ ->
                      Error
                        (Printf.sprintf "tid %g: unclosed span %S" tid top))
                stacks
                (Ok (List.length events)))
      | Some _ -> Error "traceEvents is not an array")
