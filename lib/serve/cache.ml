module Fnv = Slp_util.Fnv

type stats = {
  hits : int;
  misses : int;
  stores : int;
  store_failures : int;
  corrupt_evictions : int;
}

type t = {
  cache_dir : string;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable store_failures : int;
  mutable corrupt_evictions : int;
}

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let remove_all ~suffix dir =
  Array.iter
    (fun name ->
      if Filename.check_suffix name suffix then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

(* A [store] killed between its write and its rename leaves its tmp
   file behind, and nothing else would ever remove it. *)
let create ~dir =
  mkdir_p dir;
  remove_all ~suffix:".entry.tmp" dir;
  {
    cache_dir = dir;
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    store_failures = 0;
    corrupt_evictions = 0;
  }

let dir t = t.cache_dir

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let path t key = Filename.concat t.cache_dir (Fnv.to_hex key ^ ".entry")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find t key =
  locked t (fun () ->
      let file = path t key in
      if not (Sys.file_exists file) then (
        t.misses <- t.misses + 1;
        None)
      else
        let verified =
          match read_file file with
          | exception Sys_error _ -> None
          | line -> (
              match String.index_opt line ' ' with
              | None -> None
              | Some cut -> (
                  let payload =
                    String.sub line (cut + 1) (String.length line - cut - 1)
                  in
                  let payload =
                    if String.length payload > 0
                       && payload.[String.length payload - 1] = '\n'
                    then String.sub payload 0 (String.length payload - 1)
                    else payload
                  in
                  match Fnv.of_hex (String.sub line 0 cut) with
                  | Some digest when digest = Fnv.hash64 payload -> Some payload
                  | _ -> None))
        in
        match verified with
        | Some payload ->
            t.hits <- t.hits + 1;
            Some payload
        | None ->
            (* Integrity breach: evict so the next compile heals it. *)
            (try Sys.remove file with Sys_error _ -> ());
            t.corrupt_evictions <- t.corrupt_evictions + 1;
            t.misses <- t.misses + 1;
            None)

let store t key payload =
  locked t (fun () ->
      let bytes = Bytes.of_string payload in
      Fault.store_hook bytes;
      let line = Fnv.to_hex (Fnv.hash64 payload) ^ " " ^ Bytes.to_string bytes ^ "\n" in
      let file = path t key in
      let tmp = file ^ ".tmp" in
      match
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc line;
            close_out oc);
        Sys.rename tmp file
      with
      | () -> t.stores <- t.stores + 1
      | exception Sys_error _ ->
          (* A full disk or a vanished directory: the entry is lost,
             the caller's payload is not. *)
          (try Sys.remove tmp with Sys_error _ -> ());
          t.store_failures <- t.store_failures + 1)

let clear t = locked t (fun () -> remove_all ~suffix:".entry" t.cache_dir)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        stores = t.stores;
        store_failures = t.store_failures;
        corrupt_evictions = t.corrupt_evictions;
      })
