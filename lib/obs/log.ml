(* Leveled JSON-line structured logging over the injectable clock.

   Events render as one line of JSON — {"ts":..,"level":..,"event":..}
   plus caller fields — into a bounded in-memory ring (always) and an
   optional file sink.  The ring lets the stats endpoint and tests see
   recent history without any file plumbing; the file sink is what
   [slpd --log FILE] wires up, and a write error closes it rather than
   raising into the logging call.  Level filtering is an atomic read so a
   disabled call site costs one load and a compare. *)

type level = Debug | Info | Warn | Error | Off

let level_value = function
  | Debug -> 0
  | Info -> 1
  | Warn -> 2
  | Error -> 3
  | Off -> 4

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"
  | Off -> "off"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | "off" -> Some Off
  | _ -> None

type entry = { ts : float; level : level; event : string; line : string }

(* Ring slots keep the line lazy: with no file sink attached, a logged
   event pays for rendering only if it is still in the ring when
   [recent] is called — not on the service hot path.  Every force
   happens under [mutex], so the thunk is never raced. *)
type stored = {
  s_ts : float;
  s_level : level;
  s_event : string;
  s_line : string Lazy.t;
}

type t = {
  threshold : int Atomic.t;
  clock : unit -> float;
  mutex : Mutex.t;
  ring : stored option array;
  mutable next : int; (* ring write cursor *)
  mutable total : int; (* entries ever logged (post-filter) *)
  counts : int array; (* per-level counts, Debug..Error *)
  mutable sink : out_channel option;
  mutable sink_error : string option;  (* why the last sink was closed *)
}

let create ?(level = Info) ?(capacity = 256) ?(clock = Clock.now) () =
  {
    threshold = Atomic.make (level_value level);
    clock;
    mutex = Mutex.create ();
    ring = Array.make (max 1 capacity) None;
    next = 0;
    total = 0;
    counts = Array.make 4 0;
    sink = None;
    sink_error = None;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let set_level t level = Atomic.set t.threshold (level_value level)
let level t =
  match Atomic.get t.threshold with
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | 3 -> Error
  | _ -> Off

let enabled t lvl = level_value lvl >= Atomic.get t.threshold && lvl <> Off

let with_file t path =
  locked t (fun () ->
      (match t.sink with Some oc -> close_out_noerr oc | None -> ());
      t.sink <- Some (open_out path);
      t.sink_error <- None)

let close t =
  locked t (fun () ->
      (match t.sink with Some oc -> close_out_noerr oc | None -> ());
      t.sink <- None)

let render ~ts ~lvl ~event fields =
  Json.to_string
    (Json.Obj
       (("ts", Json.Num ts)
       :: ("level", Json.Str (level_name lvl))
       :: ("event", Json.Str event)
       :: fields))

let event t lvl event fields =
  if enabled t lvl then begin
    let ts = t.clock () in
    let line = lazy (render ~ts ~lvl ~event fields) in
    locked t (fun () ->
        t.ring.(t.next) <-
          Some { s_ts = ts; s_level = lvl; s_event = event; s_line = line };
        t.next <- (t.next + 1) mod Array.length t.ring;
        t.total <- t.total + 1;
        t.counts.(level_value lvl) <- t.counts.(level_value lvl) + 1;
        match t.sink with
        | Some oc -> (
            (* A failing sink (a full disk, say) must not take its
               caller down: drop the sink, keep the ring. *)
            try
              output_string oc (Lazy.force line);
              output_char oc '\n';
              flush oc
            with Sys_error msg ->
              close_out_noerr oc;
              t.sink <- None;
              t.sink_error <- Some msg)
        | None -> ())
  end

let debug t e fields = event t Debug e fields
let info t e fields = event t Info e fields
let warn t e fields = event t Warn e fields
let error t e fields = event t Error e fields

let recent ?(max = max_int) t =
  locked t (fun () ->
      let n = Array.length t.ring in
      let held = min t.total n in
      let take = min max held in
      (* oldest-first slice of the last [take] entries *)
      List.init take (fun i ->
          let idx = (t.next - take + i + n + n) mod n in
          let s = Option.get t.ring.(idx) in
          {
            ts = s.s_ts;
            level = s.s_level;
            event = s.s_event;
            line = Lazy.force s.s_line;
          }))

let counts t =
  locked t (fun () ->
      ([ Debug; Info; Warn; Error ]
      |> List.map (fun lvl -> (level_name lvl, t.counts.(level_value lvl)))))

let total t = locked t (fun () -> t.total)

let stats_json t =
  let by_level = counts t in
  let sink_error = locked t (fun () -> t.sink_error) in
  Json.Obj
    [
      ("level", Json.Str (level_name (level t)));
      ("total", Json.Num (float_of_int (total t)));
      ( "counts",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) by_level) );
      ( "sink_error",
        match sink_error with Some msg -> Json.Str msg | None -> Json.Null );
    ]
