(* Typed, labeled instruments.

   Updating an instrument is lock-free: a counter, each histogram
   bucket and each histogram's fixed-point sum is one [Atomic.t], so
   concurrent domains add to it without a lock.  slpd's writers are a
   handful of worker domains and the reactor, and its labelled helpers
   resolve their handle (under the family mutex) on every call anyway,
   so per-domain copies of the cells would buy nothing.  Locks exist
   only at the edges — resolving a (family, label-set) pair to its
   cells, and taking a scrape snapshot — and both copy under the lock
   and do all sorting/formatting outside it.

   Histograms are log-bucketed and mergeable: the sum is stored as a
   fixed-point int64 (round (v * scale)) so merging snapshots is
   integer addition — exactly associative and commutative, hence
   bit-identical regardless of merge order. *)

let rec add64 cell v =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (Int64.add cur v)) then add64 cell v

(* -- histogram layout and snapshots ---------------------------------- *)

type layout = { bounds : float array; growth : float; scale : float }

let log_layout ?(scale = 1e9) ~base ~growth ~buckets () =
  if buckets < 1 then invalid_arg "Metric.log_layout: buckets < 1";
  if not (growth > 1.0) then invalid_arg "Metric.log_layout: growth <= 1";
  if not (base > 0.0) then invalid_arg "Metric.log_layout: base <= 0";
  let bounds = Array.init buckets (fun i -> base *. (growth ** float_of_int i)) in
  { bounds; growth; scale }

(* 1us .. ~134s in 28 doubling buckets: covers cache hits through
   quarantine-length compile jobs. *)
let seconds = log_layout ~base:1e-6 ~growth:2.0 ~buckets:28 ()

let bucket_index layout v =
  let n = Array.length layout.bounds in
  let rec go i = if i >= n then n else if v <= layout.bounds.(i) then i else go (i + 1) in
  go 0

type hsnap = {
  hbounds : float array;
  hgrowth : float;
  hscale : float;
  hcounts : int array; (* length = bounds + 1; last slot is overflow *)
  hsum_fp : int64;
}

let hcount h = Array.fold_left ( + ) 0 h.hcounts
let hsum h = Int64.to_float h.hsum_fp /. h.hscale

let same_layout a b =
  a.hgrowth = b.hgrowth && a.hscale = b.hscale && a.hbounds = b.hbounds

let hmerge a b =
  if not (same_layout a b) then invalid_arg "Metric.hmerge: layout mismatch";
  {
    a with
    hcounts = Array.mapi (fun i c -> c + b.hcounts.(i)) a.hcounts;
    hsum_fp = Int64.add a.hsum_fp b.hsum_fp;
  }

(* Upper bound of the bucket holding rank [ceil (q * n)]: the estimate
   can only overshoot the exact order statistic, and by at most one
   growth factor (the bucket's own width). *)
let hquantile h q =
  let total = hcount h in
  if total = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let nb = Array.length h.hbounds in
    let rec go i seen =
      if i > nb then Float.infinity
      else
        let seen = seen + h.hcounts.(i) in
        if seen >= rank then
          if i = nb then Float.infinity else h.hbounds.(i)
        else go (i + 1) seen
    in
    go 0 0
  end

(* -- cells and families ---------------------------------------------- *)

type kind = Counter_k | Gauge_k | Histogram_k

let kind_name = function
  | Counter_k -> "counter"
  | Gauge_k -> "gauge"
  | Histogram_k -> "histogram"

type counter_cells = int Atomic.t

type hist_cells = {
  hc_layout : layout;
  hc_counts : int Atomic.t array; (* bucket counts (+overflow) *)
  hc_sum : int64 Atomic.t; (* fixed-point sum *)
}

type cells =
  | Ccells of counter_cells
  | Gcell of float Atomic.t
  | Hcells of hist_cells

type family = {
  fam_name : string;
  fam_help : string;
  fam_kind : kind;
  fam_labels : string list;
  fam_layout : layout option;
  fam_mutex : Mutex.t;
  fam_series : (string list, cells) Hashtbl.t;
}

type t = {
  reg_mutex : Mutex.t;
  families : (string, family) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
  mutable hooks : (unit -> unit) list;
}

let create () =
  {
    reg_mutex = Mutex.create ();
    families = Hashtbl.create 32;
    order = [];
    hooks = [];
  }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let on_collect t hook = locked t.reg_mutex (fun () -> t.hooks <- hook :: t.hooks)

let family t ~kind ~help ~labels ?layout name =
  locked t.reg_mutex (fun () ->
      match Hashtbl.find_opt t.families name with
      | Some fam ->
          if fam.fam_kind <> kind then
            invalid_arg
              (Printf.sprintf "Metric: %s re-registered as %s (was %s)" name
                 (kind_name kind) (kind_name fam.fam_kind));
          if fam.fam_labels <> labels then
            invalid_arg
              (Printf.sprintf "Metric: %s re-registered with different labels"
                 name);
          fam
      | None ->
          let fam =
            {
              fam_name = name;
              fam_help = help;
              fam_kind = kind;
              fam_labels = labels;
              fam_layout = layout;
              fam_mutex = Mutex.create ();
              fam_series = Hashtbl.create 8;
            }
          in
          Hashtbl.replace t.families name fam;
          t.order <- name :: t.order;
          fam)

let new_cells fam =
  match fam.fam_kind with
  | Counter_k -> Ccells (Atomic.make 0)
  | Gauge_k -> Gcell (Atomic.make 0.0)
  | Histogram_k ->
      let layout = Option.get fam.fam_layout in
      let nb = Array.length layout.bounds + 1 in
      Hcells
        {
          hc_layout = layout;
          hc_counts = Array.init nb (fun _ -> Atomic.make 0);
          hc_sum = Atomic.make 0L;
        }

(* Resolve a label-set to its cells: the one locking step on the job
   path, done once per handle (handles are cached by callers). *)
let series fam values =
  if List.length values <> List.length fam.fam_labels then
    invalid_arg
      (Printf.sprintf "Metric: %s expects %d label value(s), got %d"
         fam.fam_name
         (List.length fam.fam_labels)
         (List.length values));
  locked fam.fam_mutex (fun () ->
      match Hashtbl.find_opt fam.fam_series values with
      | Some cells -> cells
      | None ->
          let cells = new_cells fam in
          Hashtbl.replace fam.fam_series values cells;
          cells)

(* -- instrument front-ends ------------------------------------------- *)

module Counter = struct
  type nonrec family = family
  type handle = counter_cells

  let family t ?(help = "") ?(labels = []) name : family =
    family t ~kind:Counter_k ~help ~labels name

  let handle (fam : family) values : handle =
    match series fam values with
    | Ccells c -> c
    | _ -> assert false

  let plain t ?help name = handle (family t ?help name) []

  let incr ?(by = 1) (h : handle) = ignore (Atomic.fetch_and_add h by)
  let value (h : handle) = Atomic.get h
end

module Gauge = struct
  type nonrec family = family
  type handle = float Atomic.t

  let family t ?(help = "") ?(labels = []) name : family =
    family t ~kind:Gauge_k ~help ~labels name

  let handle (fam : family) values : handle =
    match series fam values with
    | Gcell g -> g
    | _ -> assert false

  let plain t ?help name = handle (family t ?help name) []
  let set (h : handle) v = Atomic.set h v
  let value (h : handle) = Atomic.get h
end

module Histogram = struct
  type nonrec family = family
  type handle = hist_cells

  let family t ?(help = "") ?(labels = []) ?(layout = seconds) name : family =
    family t ~kind:Histogram_k ~help ~labels ~layout name

  let handle (fam : family) values : handle =
    match series fam values with
    | Hcells h -> h
    | _ -> assert false

  let plain t ?help ?layout name = handle (family t ?help ?layout name) []

  let observe (h : handle) v =
    let i = bucket_index h.hc_layout v in
    ignore (Atomic.fetch_and_add h.hc_counts.(i) 1);
    add64 h.hc_sum (Int64.of_float (Float.round (v *. h.hc_layout.scale)))

  let snap (h : handle) =
    let layout = h.hc_layout in
    {
      hbounds = layout.bounds;
      hgrowth = layout.growth;
      hscale = layout.scale;
      hcounts = Array.map Atomic.get h.hc_counts;
      hsum_fp = Atomic.get h.hc_sum;
    }
end

(* -- scrape: snapshot / JSON / Prometheus ----------------------------- *)

type value = Vcounter of float | Vgauge of float | Vhist of hsnap
type sample = { labels : (string * string) list; value : value }

type family_snap = {
  name : string;
  help : string;
  skind : kind;
  samples : sample list;
}

let read_cells = function
  | Ccells c -> Vcounter (float_of_int (Counter.value c))
  | Gcell g -> Vgauge (Atomic.get g)
  | Hcells h -> Vhist (Histogram.snap h)

let snapshot t =
  (* Collect hooks let the pool refresh scrape-derived gauges (queue
     depth, live workers, cache hit rate) just before reading. *)
  let hooks, names =
    locked t.reg_mutex (fun () -> (t.hooks, List.rev t.order))
  in
  List.iter (fun hook -> hook ()) hooks;
  List.filter_map
    (fun name ->
      match
        locked t.reg_mutex (fun () -> Hashtbl.find_opt t.families name)
      with
      | None -> None
      | Some fam ->
          (* Copy the rows under the family lock; read atomics and sort
             outside it. *)
          let rows =
            locked fam.fam_mutex (fun () ->
                Hashtbl.fold (fun k c acc -> (k, c) :: acc) fam.fam_series [])
          in
          let samples =
            rows
            |> List.map (fun (values, cells) ->
                   {
                     labels = List.combine fam.fam_labels values;
                     value = read_cells cells;
                   })
            |> List.sort (fun a b -> compare a.labels b.labels)
          in
          Some
            {
              name = fam.fam_name;
              help = fam.fam_help;
              skind = fam.fam_kind;
              samples;
            })
    names

let get ?(where = []) t name =
  let matches s =
    List.for_all (fun (k, v) -> List.assoc_opt k s.labels = Some v) where
  in
  match List.find_opt (fun fs -> fs.name = name) (snapshot t) with
  | None -> 0.0
  | Some fs ->
      List.fold_left
        (fun acc s ->
          if not (matches s) then acc
          else
            match s.value with
            | Vcounter v | Vgauge v -> acc +. v
            | Vhist h -> acc +. float_of_int (hcount h))
        0.0 fs.samples

let hist_json h =
  let buckets =
    List.init
      (Array.length h.hcounts)
      (fun i ->
        let le =
          if i = Array.length h.hbounds then Json.Str "+Inf"
          else Json.Num h.hbounds.(i)
        in
        Json.Obj [ ("le", le); ("count", Json.Num (float_of_int h.hcounts.(i))) ])
  in
  Json.Obj
    [
      ("count", Json.Num (float_of_int (hcount h)));
      ("sum", Json.Num (hsum h));
      ("p50", Json.Num (hquantile h 0.5));
      ("p90", Json.Num (hquantile h 0.9));
      ("p99", Json.Num (hquantile h 0.99));
      ("buckets", Json.Arr buckets);
    ]

let sample_json s =
  let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels) in
  let value =
    match s.value with
    | Vcounter v | Vgauge v -> Json.Num v
    | Vhist h -> hist_json h
  in
  Json.Obj [ ("labels", labels); ("value", value) ]

let to_json t =
  Json.Obj
    (List.map
       (fun fs ->
         ( fs.name,
           Json.Obj
             [
               ("kind", Json.Str (kind_name fs.skind));
               ("help", Json.Str fs.help);
               ("series", Json.Arr (List.map sample_json fs.samples));
             ] ))
       (snapshot t))

(* Prometheus text exposition, rendered by hand like Obs.Json. *)

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let prom_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" k (prom_escape v))
             labels)
      ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let line name labels v =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_float v))
  in
  List.iter
    (fun fs ->
      if fs.help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" fs.name fs.help);
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" fs.name (kind_name fs.skind));
      List.iter
        (fun s ->
          match s.value with
          | Vcounter v | Vgauge v -> line fs.name s.labels v
          | Vhist h ->
              let cumulative = ref 0 in
              Array.iteri
                (fun i c ->
                  cumulative := !cumulative + c;
                  let le =
                    if i = Array.length h.hbounds then "+Inf"
                    else prom_float h.hbounds.(i)
                  in
                  line (fs.name ^ "_bucket")
                    (s.labels @ [ ("le", le) ])
                    (float_of_int !cumulative))
                h.hcounts;
              line (fs.name ^ "_sum") s.labels (hsum h);
              line (fs.name ^ "_count") s.labels (float_of_int (hcount h)))
        fs.samples)
    (snapshot t);
  Buffer.contents buf

(* -- exposition validator --------------------------------------------- *)

(* Enough of the Prometheus text grammar to catch rendering bugs in CI:
   every sample must follow a # TYPE for its family; (name, label-set)
   pairs are unique; counters and only counters end in _total;
   histograms end in _seconds; bucket counts are nondecreasing in le;
   the +Inf bucket equals _count; _sum is present. *)

exception Bad of string

let strip_suffix s suffix =
  let ls = String.length s and lx = String.length suffix in
  if ls > lx && String.sub s (ls - lx) lx = suffix then
    Some (String.sub s 0 (ls - lx))
  else None

let has_suffix s suffix = strip_suffix s suffix <> None

let parse_sample_line line =
  (* name{k="v",...} value  |  name value *)
  let len = String.length line in
  let rec name_end i =
    if i >= len then i
    else match line.[i] with '{' | ' ' -> i | _ -> name_end (i + 1)
  in
  let ne = name_end 0 in
  if ne = 0 then raise (Bad (Printf.sprintf "empty metric name: %s" line));
  let name = String.sub line 0 ne in
  let labels = ref [] in
  let i = ref ne in
  if !i < len && line.[!i] = '{' then begin
    incr i;
    let rec pairs () =
      if !i >= len then raise (Bad (Printf.sprintf "unterminated labels: %s" line));
      if line.[!i] = '}' then incr i
      else begin
        let ks = !i in
        while !i < len && line.[!i] <> '=' do incr i done;
        if !i >= len then raise (Bad (Printf.sprintf "bad label pair: %s" line));
        let key = String.sub line ks (!i - ks) in
        incr i;
        if !i >= len || line.[!i] <> '"' then
          raise (Bad (Printf.sprintf "unquoted label value: %s" line));
        incr i;
        let buf = Buffer.create 8 in
        let rec value () =
          if !i >= len then
            raise (Bad (Printf.sprintf "unterminated label value: %s" line));
          match line.[!i] with
          | '"' -> incr i
          | '\\' ->
              if !i + 1 >= len then
                raise (Bad (Printf.sprintf "dangling escape: %s" line));
              (match line.[!i + 1] with
              | 'n' -> Buffer.add_char buf '\n'
              | c -> Buffer.add_char buf c);
              i := !i + 2;
              value ()
          | c ->
              Buffer.add_char buf c;
              incr i;
              value ()
        in
        value ();
        labels := (key, Buffer.contents buf) :: !labels;
        if !i < len && line.[!i] = ',' then incr i;
        pairs ()
      end
    in
    pairs ()
  end;
  if !i >= len || line.[!i] <> ' ' then
    raise (Bad (Printf.sprintf "missing value: %s" line));
  let v = String.sub line (!i + 1) (len - !i - 1) |> String.trim in
  let value =
    match v with
    | "+Inf" -> Float.infinity
    | "-Inf" -> Float.neg_infinity
    | "NaN" -> Float.nan
    | v -> (
        match float_of_string_opt v with
        | Some f -> f
        | None -> raise (Bad (Printf.sprintf "bad sample value %S" v)))
  in
  (name, List.rev !labels, value)

let validate_exposition text =
  try
    let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    (* histogram series accumulator: (family, labels-without-le) ->
       buckets in order of appearance, sum/count presence *)
    let hists :
        ( string * (string * string) list,
          (float * float) list ref * float option ref * float option ref )
        Hashtbl.t =
      Hashtbl.create 16
    in
    let family_of name =
      (* map _bucket/_sum/_count sample names back to a declared
         histogram family if one exists *)
      let try_suffix suffix =
        match strip_suffix name suffix with
        | Some base when Hashtbl.find_opt types base = Some "histogram" ->
            Some base
        | _ -> None
      in
      match try_suffix "_bucket" with
      | Some b -> Some (b, `Hist_part)
      | None -> (
          match try_suffix "_sum" with
          | Some b -> Some (b, `Hist_part)
          | None -> (
              match try_suffix "_count" with
              | Some b -> Some (b, `Hist_part)
              | None ->
                  Option.map
                    (fun _ -> (name, `Plain))
                    (Hashtbl.find_opt types name)))
    in
    let lines = String.split_on_char '\n' text in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line = "" then ()
        else if String.length line > 0 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: [ kind ] ->
              if Hashtbl.mem types name then
                raise (Bad (Printf.sprintf "duplicate TYPE for %s" name));
              if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
                raise (Bad (Printf.sprintf "unknown TYPE %s for %s" kind name));
              if kind = "counter" && not (has_suffix name "_total") then
                raise
                  (Bad (Printf.sprintf "counter %s must end in _total" name));
              if kind <> "counter" && has_suffix name "_total" then
                raise
                  (Bad
                     (Printf.sprintf "%s ends in _total but is a %s" name kind));
              if kind = "histogram" && not (has_suffix name "_seconds") then
                raise
                  (Bad
                     (Printf.sprintf "histogram %s must end in _seconds" name));
              Hashtbl.replace types name kind
          | "#" :: "HELP" :: _ -> ()
          | _ -> raise (Bad (Printf.sprintf "bad comment line: %s" line))
        end
        else begin
          let name, labels, value = parse_sample_line line in
          let fam =
            match family_of name with
            | Some f -> f
            | None ->
                raise
                  (Bad
                     (Printf.sprintf "sample %s has no preceding # TYPE" name))
          in
          let key =
            name ^ "|"
            ^ String.concat ","
                (List.map
                   (fun (k, v) -> k ^ "=" ^ v)
                   (List.sort compare labels))
          in
          if Hashtbl.mem seen key then
            raise (Bad (Printf.sprintf "duplicate sample %s" key));
          Hashtbl.replace seen key ();
          match fam with
          | _, `Plain -> ()
          | base, `Hist_part ->
              let series_labels =
                List.filter (fun (k, _) -> k <> "le") labels
              in
              let skey = (base, List.sort compare series_labels) in
              let buckets, sum, count =
                match Hashtbl.find_opt hists skey with
                | Some entry -> entry
                | None ->
                    let entry = (ref [], ref None, ref None) in
                    Hashtbl.replace hists skey entry;
                    entry
              in
              if has_suffix name "_bucket" then begin
                let le =
                  match List.assoc_opt "le" labels with
                  | Some "+Inf" -> Float.infinity
                  | Some le -> (
                      match float_of_string_opt le with
                      | Some f -> f
                      | None ->
                          raise
                            (Bad (Printf.sprintf "bad le %S on %s" le name)))
                  | None ->
                      raise
                        (Bad (Printf.sprintf "bucket without le label: %s" name))
                in
                buckets := (le, value) :: !buckets
              end
              else if has_suffix name "_sum" then sum := Some value
              else count := Some value
        end)
      lines;
    (* Per-histogram-series structural checks. *)
    Hashtbl.iter
      (fun (base, _labels) (buckets, sum, count) ->
        let buckets = List.rev !buckets in
        if buckets = [] then
          raise (Bad (Printf.sprintf "histogram %s has no buckets" base));
        let rec check_mono prev_le prev_c = function
          | [] -> ()
          | (le, c) :: rest ->
              if le <= prev_le then
                raise
                  (Bad
                     (Printf.sprintf "histogram %s buckets not in le order" base));
              if c < prev_c then
                raise
                  (Bad
                     (Printf.sprintf
                        "histogram %s bucket counts decrease at le=%g" base le));
              check_mono le c rest
        in
        check_mono Float.neg_infinity 0.0 buckets;
        let inf_le, inf_c = List.nth buckets (List.length buckets - 1) in
        if inf_le <> Float.infinity then
          raise (Bad (Printf.sprintf "histogram %s missing +Inf bucket" base));
        (match !count with
        | None ->
            raise (Bad (Printf.sprintf "histogram %s missing _count" base))
        | Some c ->
            if c <> inf_c then
              raise
                (Bad
                   (Printf.sprintf
                      "histogram %s: +Inf bucket %g <> _count %g" base inf_c c)));
        if !sum = None then
          raise (Bad (Printf.sprintf "histogram %s missing _sum" base)))
      hists;
    Result.Ok ()
  with Bad msg -> Result.Error msg
