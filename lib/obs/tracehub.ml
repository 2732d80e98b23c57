(* Cross-domain trace stitching.

   Each domain that records spans gets its own [Trace.t] buffer, keyed
   by the domain's id and used as the Chrome [tid] — so the reactor
   and every worker domain render as separate rows of one timeline.
   Recording stays single-writer (a domain only appends to its own
   buffer); the hub mutex is touched once per domain, at buffer
   creation, and again at merge time.

   The rows go out through [Trace.rows_to_json], which rebases all
   timestamps against one global t0 (the earliest event anywhere),
   keeping rows aligned so a job's reactor "rx" span visually precedes
   its worker "job" span. *)

type t = { mutex : Mutex.t; traces : (int, Trace.t) Hashtbl.t }

let create () = { mutex = Mutex.create (); traces = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let trace t =
  let tid = (Domain.self () :> int) in
  locked t (fun () ->
      match Hashtbl.find_opt t.traces tid with
      | Some tr -> tr
      | None ->
          let tr = Trace.create ~pid:1 ~tid () in
          Hashtbl.replace t.traces tid tr;
          tr)

let span t ?args name f = Trace.span (trace t) ?args name f

let rows t =
  locked t (fun () ->
      Hashtbl.fold (fun tid tr acc -> (tid, tr) :: acc) t.traces [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let domains t = List.length (rows t)

let balanced t = List.for_all (fun (_, tr) -> Trace.balanced tr) (rows t)

let event_count t =
  List.fold_left (fun acc (_, tr) -> acc + Trace.event_count tr) 0 (rows t)

let to_chrome_json t = Json.to_string (Trace.rows_to_json (List.map snd (rows t)))
let write_file t path = Trace.write_rows (List.map snd (rows t)) path
