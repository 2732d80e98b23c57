(* What one workload run measured, passed from a run process back to
   the parent process as one JSON line. *)

module Json = Slp_obs.Json

type metric = { name : string; unit_ : string; value : float; samples : int }

type t = {
  attempted : int;
  failed : int;
  failures : string list;  (** The first 20 failure messages. *)
  metrics : metric list;
  exact : (string * float) list;
      (** Values that must repeat exactly for one tree and seed. *)
}

let metric ?(samples = 0) name unit_ value = { name; unit_; value; samples }
let find t name = List.find_opt (fun m -> m.name = name) t.metrics

let to_json t =
  Json.Obj
    [
      ("attempted", Json.Num (float_of_int t.attempted));
      ("failed", Json.Num (float_of_int t.failed));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) t.failures));
      ( "metrics",
        Json.Arr
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("name", Json.Str m.name);
                   ("unit", Json.Str m.unit_);
                   (* Full precision: the JSON printer keeps nine digits. *)
                   ("value", Json.Str (Printf.sprintf "%.17g" m.value));
                   ("samples", Json.Num (float_of_int m.samples));
                 ])
             t.metrics) );
      (* Exact values travel as their bit patterns so the comparison is
         bitwise. *)
      ( "exact",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Str (Int64.to_string (Int64.bits_of_float v)))) t.exact)
      );
    ]

let of_json j =
  let num k o = match Json.member k o with Some (Json.Num n) -> n | _ -> nan in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> "" in
  let arr k o = match Json.member k o with Some (Json.Arr a) -> a | _ -> [] in
  {
    attempted = int_of_float (num "attempted" j);
    failed = int_of_float (num "failed" j);
    failures = List.map (function Json.Str s -> s | _ -> "") (arr "failures" j);
    metrics =
      List.map
        (fun m ->
          {
            name = str "name" m;
            unit_ = str "unit" m;
            value = float_of_string (str "value" m);
            samples = int_of_float (num "samples" m);
          })
        (arr "metrics" j);
    exact =
      (match Json.member "exact" j with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (function k, Json.Str s -> Some (k, Int64.float_of_bits (Int64.of_string s)) | _ -> None)
            kvs
      | _ -> []);
  }

(* Counts every failure; keeps the first few messages for the report. *)
let fail_message t msg =
  { t with failed = t.failed + 1; failures = (if t.failed < 20 then t.failures @ [ msg ] else t.failures) }
