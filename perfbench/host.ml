(* Host fingerprint, process memory, and small file helpers. *)

let now = Unix.gettimeofday

(* Reads to end of file, so /proc files (which report no length) work. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      ignore (Unix.close_process_in ic);
      n
  | exception Unix.Unix_error _ -> 0

(* The checked-out commit when the tree is a git work tree, read from
   .git without running git; "none" otherwise. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_name) with
      | s -> String.trim s
      | exception Sys_error _ ->
          let packed = String.split_on_char '\n' (read_file ".git/packed-refs") in
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ sha; r ] when r = ref_name -> Some sha
              | _ -> None)
            packed
          |> Option.value ~default:"unknown"
    else head
  with Sys_error _ -> "none"

(* A digest of the sources the benchmark builds, so exact-repeat
   records from one tree are never compared against another's. *)
let source_digest roots =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if
             Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" || f = "dune"
           then [ p ]
           else [])
  in
  let h =
    List.fold_left
      (fun h p -> Slp_util.Fnv.combine (Slp_util.Fnv.combine h p) (read_file p))
      (Slp_util.Fnv.hash64 "perfbench")
      (List.concat_map (fun r -> if Sys.file_exists r then files r else []) roots)
  in
  Slp_util.Fnv.to_hex h

let fingerprint ~seed =
  [
    ("nproc", string_of_int (nproc ()));
    ("ocaml", Sys.ocaml_version);
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("commit", commit ());
    ("source_digest", source_digest [ "lib"; "bin"; "perfbench" ]);
    ("seed", string_of_int seed);
  ]
