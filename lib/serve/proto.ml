module Pipeline = Slp_pipeline.Pipeline
module M = Slp_machine.Machine
module E = Slp_util.Slp_error
module Json = Slp_obs.Json

type jobop = Compile | Execute

let jobop_name = function Compile -> "compile" | Execute -> "execute"

type spec = {
  kernel : string;
  name : string;
  scheme : Pipeline.scheme;
  machine : M.t;
  unroll : int option;
  max_steps : int option;
  solver_steps : int option;
  timeout : float option;
  cores : int;
  seed : int;
}

let default_spec ~kernel ~name =
  {
    kernel;
    name;
    scheme = Pipeline.Global;
    machine = M.intel_dunnington;
    unroll = None;
    max_steps = None;
    solver_steps = None;
    timeout = None;
    cores = 1;
    seed = 42;
  }

type op = Job of jobop * spec | Ping | Stats | Metrics | Health | Shutdown

type request = { id : int; op : op }

type status = Ok | Degraded | Overloaded | Draining | Bad_request

let status_name = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Bad_request -> "bad-request"

let status_of_name = function
  | "ok" -> Some Ok
  | "degraded" -> Some Degraded
  | "overloaded" -> Some Overloaded
  | "draining" -> Some Draining
  | "bad-request" -> Some Bad_request
  | _ -> None

type reply = {
  id : int;
  status : status;
  cached : bool;
  quarantined : bool;
  attempts : int;
  errors : E.t list;
  payload : Json.t;
}

let ok_reply ?(cached = false) ?(attempts = 1) ?(errors = []) ~id payload =
  { id; status = Ok; cached; quarantined = false; attempts; errors; payload }

let error_reply ?(errors = []) ?message ~id status =
  let payload =
    match message with
    | Some m -> Json.Obj [ ("message", Json.Str m) ]
    | None -> Json.Null
  in
  { id; status; cached = false; quarantined = false; attempts = 0; errors; payload }

(* -- scheme / machine wire names ------------------------------------ *)

let scheme_of_string = Pipeline.scheme_of_string
let scheme_to_string = Pipeline.scheme_to_string
let machine_of_string = M.of_string
let machine_to_string = M.to_string

(* -- encoding -------------------------------------------------------- *)

let opt_int f = function None -> [] | Some v -> [ (f, Json.Num (float_of_int v)) ]
let opt_float f = function None -> [] | Some v -> [ (f, Json.Num v) ]

let spec_fields (s : spec) =
  [
    ("kernel", Json.Str s.kernel);
    ("name", Json.Str s.name);
    ("scheme", Json.Str (scheme_to_string s.scheme));
    ("machine", Json.Str (machine_to_string s.machine));
  ]
  @ opt_int "unroll" s.unroll
  @ opt_int "max_steps" s.max_steps
  @ opt_int "solver_steps" s.solver_steps
  @ opt_float "timeout" s.timeout
  @ [
      ("cores", Json.Num (float_of_int s.cores));
      ("seed", Json.Num (float_of_int s.seed));
    ]

let request_to_line (r : request) =
  let fields =
    match r.op with
    | Ping -> [ ("op", Json.Str "ping") ]
    | Stats -> [ ("op", Json.Str "stats") ]
    | Metrics -> [ ("op", Json.Str "metrics") ]
    | Health -> [ ("op", Json.Str "health") ]
    | Shutdown -> [ ("op", Json.Str "shutdown") ]
    | Job (jop, spec) -> (("op", Json.Str (jobop_name jop)) :: spec_fields spec)
  in
  Json.to_string (Json.Obj (("id", Json.Num (float_of_int r.id)) :: fields))

let error_to_json (e : E.t) =
  Json.Obj
    ([
       ("code", Json.Str (E.code_name e.E.code));
       ("pass", Json.Str (E.pass_name e.E.pass));
       ("recoverable", Json.Bool e.E.recoverable);
       ("message", Json.Str e.E.message);
     ]
    @
    match e.E.span with
    | Some { E.line; col } ->
        [ ("line", Json.Num (float_of_int line)); ("col", Json.Num (float_of_int col)) ]
    | None -> [])

let reply_to_line (r : reply) =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Num (float_of_int r.id));
         ("status", Json.Str (status_name r.status));
         ("cached", Json.Bool r.cached);
         ("quarantined", Json.Bool r.quarantined);
         ("attempts", Json.Num (float_of_int r.attempts));
         ("errors", Json.Arr (List.map error_to_json r.errors));
         ("payload", r.payload);
       ])

(* -- decoding -------------------------------------------------------- *)

let str_field name obj =
  match Json.member name obj with Some (Json.Str s) -> Some s | _ -> None

let num_field name obj =
  match Json.member name obj with Some (Json.Num n) -> Some n | _ -> None

let int_field name obj = Option.map int_of_float (num_field name obj)

let bool_field name obj =
  match Json.member name obj with Some (Json.Bool b) -> Some b | _ -> None

(* [prefix ^ s] quoted for an error message, where [s] came from the
   client: whole up to 64 bytes, else its first 64 bytes, "…" and its
   length, so an error reply stays short whatever the request held. *)
let quote ?(prefix = "") s =
  let n = String.length s in
  if n <= 64 then Printf.sprintf "%S" (prefix ^ s)
  else Printf.sprintf "%S… (%d bytes)" (prefix ^ String.sub s 0 64) n

let spec_of_json obj =
  let ( let* ) r f = Result.bind r f in
  let require what = function
    | Some v -> Result.Ok v
    | None -> Result.Error ("missing or malformed field " ^ what)
  in
  let* kernel = require (quote "kernel") (str_field "kernel" obj) in
  let name = Option.value ~default:"job" (str_field "name" obj) in
  let* scheme =
    let s = Option.value ~default:"global" (str_field "scheme" obj) in
    require (quote ~prefix:"scheme " s) (scheme_of_string s)
  in
  let* machine =
    let s = Option.value ~default:"intel" (str_field "machine" obj) in
    require (quote ~prefix:"machine " s) (machine_of_string s)
  in
  Result.Ok
    {
      kernel;
      name;
      scheme;
      machine;
      unroll = int_field "unroll" obj;
      max_steps = int_field "max_steps" obj;
      solver_steps = int_field "solver_steps" obj;
      timeout = num_field "timeout" obj;
      cores = Option.value ~default:1 (int_field "cores" obj);
      seed = Option.value ~default:42 (int_field "seed" obj);
    }

let request_of_line line =
  match Json.parse line with
  | Result.Error msg -> Result.Error (-1, "unparsable request: " ^ msg)
  | Result.Ok obj -> (
      let id = Option.value ~default:(-1) (int_field "id" obj) in
      let fail msg = Result.Error (id, msg) in
      match str_field "op" obj with
      | None -> fail "missing field \"op\""
      | Some "ping" -> Result.Ok { id; op = Ping }
      | Some "stats" -> Result.Ok { id; op = Stats }
      | Some "metrics" -> Result.Ok { id; op = Metrics }
      | Some "health" -> Result.Ok { id; op = Health }
      | Some "shutdown" -> Result.Ok { id; op = Shutdown }
      | Some (("compile" | "execute") as opname) -> (
          match spec_of_json obj with
          | Result.Ok spec ->
              let jop = if opname = "compile" then Compile else Execute in
              Result.Ok { id; op = Job (jop, spec) }
          | Result.Error msg -> fail msg)
      | Some op -> fail ("unknown op " ^ quote op))

let error_of_json obj =
  let code_of_wire name =
    List.find_map
      (fun (c, _) -> if E.code_name c = name then Some c else None)
      E.catalogue
  in
  let pass_of_wire name =
    List.find_opt
      (fun p -> E.pass_name p = name)
      [
        E.Frontend; E.Analysis; E.Transform; E.Grouping; E.Scheduling; E.Layout;
        E.Lowering; E.Regalloc; E.Verification; E.Vm; E.Pipeline;
      ]
  in
  let code =
    Option.value ~default:E.Internal
      (Option.bind (str_field "code" obj) code_of_wire)
  in
  let pass =
    Option.value ~default:E.Pipeline
      (Option.bind (str_field "pass" obj) pass_of_wire)
  in
  let span =
    match (int_field "line" obj, int_field "col" obj) with
    | Some line, Some col -> Some { E.line; col }
    | _ -> None
  in
  E.make ?span
    ~recoverable:(Option.value ~default:true (bool_field "recoverable" obj))
    ~pass code
    (Option.value ~default:"" (str_field "message" obj))

let reply_of_line line =
  match Json.parse line with
  | Result.Error msg -> Result.Error ("unparsable reply: " ^ msg)
  | Result.Ok obj -> (
      match (int_field "id" obj, Option.bind (str_field "status" obj) status_of_name) with
      | Some id, Some status ->
          let errors =
            match Json.member "errors" obj with
            | Some (Json.Arr es) -> List.map error_of_json es
            | _ -> []
          in
          Result.Ok
            {
              id;
              status;
              cached = Option.value ~default:false (bool_field "cached" obj);
              quarantined =
                Option.value ~default:false (bool_field "quarantined" obj);
              attempts = Option.value ~default:0 (int_field "attempts" obj);
              errors;
              payload =
                Option.value ~default:Json.Null (Json.member "payload" obj);
            }
      | _ -> Result.Error "reply missing id or status")
