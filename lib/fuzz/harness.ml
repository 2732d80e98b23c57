open Slp_ir
module Pipeline = Slp_pipeline.Pipeline
module Prng = Slp_util.Prng

type config = {
  seed : int;
  count : int;
  gen_options : Gen.options;
  schemes : Pipeline.scheme list;
}

let default_config =
  {
    seed = 42;
    count = 300;
    gen_options = Gen.default_options;
    schemes = Pipeline.all_schemes;
  }

type failure_report = {
  case_index : int;
  seed : int;
  program : Program.t;
  shrunk : Program.t;
  failures : Oracle.failure list;
}

type stats = {
  cases : int;
  reports : failure_report list;
  drift_total : int;
  drift_agreements : int;
  drift_ties : int;
  drift_disagreements : int;
}

(* Case [i] owns the [i]-th split of the master stream: replayable
   from (seed, i) without regenerating earlier cases' programs. *)
let case_prng (config : config) index =
  let master = Prng.create config.seed in
  let rec skip k = if k = 0 then Prng.split master else (ignore (Prng.split master); skip (k - 1)) in
  skip index

let case_program (config : config) index =
  Gen.program ~options:config.gen_options
    ~name:(Printf.sprintf "fuzz_%d_%d" config.seed index)
    (case_prng config index)

let argmin = function
  | [] -> None
  | (n, v) :: rest ->
      Some
        (fst
           (List.fold_left
              (fun (bn, bv) (n', v') -> if v' < bv then (n', v') else (bn, bv))
              (n, v) rest))

(* Two or more schemes share the minimum. *)
let tied side =
  let least = List.fold_left (fun acc (_, v) -> Float.min acc v) Float.infinity side in
  List.length (List.filter (fun (_, v) -> v = least) side) >= 2

type verdict = Agree | Tie | Disagree

let agreement (d : Oracle.drift) =
  (* Compare only schemes present on both sides: the cost model only
     speaks for schemes that produced a plan. *)
  let both =
    List.filter_map
      (fun (n, p) ->
        Option.map (fun m -> (n, p, m)) (List.assoc_opt n d.Oracle.measured))
      d.Oracle.predicted
  in
  if List.length both < 2 then None
  else
    let pred = List.map (fun (n, p, _) -> (n, p)) both in
    let meas = List.map (fun (n, _, m) -> (n, m)) both in
    (* Each [argmin] keeps the first scheme in list order among equals,
       so when both minima are shared the two picks agree or not by
       list order alone: the record decides nothing. *)
    if tied pred && tied meas then Some Tie
    else if argmin pred = argmin meas then Some Agree
    else Some Disagree

let check config ~index program =
  let oracle p = Oracle.run ~schemes:config.schemes p in
  let outcome = oracle program in
  ( outcome,
    if not (Oracle.failed outcome) then None
    else
      let still_fails p = Oracle.failed (oracle p) in
      Some
        {
          case_index = index;
          seed = config.seed;
          program;
          shrunk = Shrink.run ~max_checks:400 ~still_fails program;
          failures = outcome.Oracle.failures;
        } )

let run ?(on_case = fun _ _ -> ()) config =
  let reports = ref [] in
  let drift_total = ref 0 and drift_agreements = ref 0 in
  let drift_ties = ref 0 and drift_disagreements = ref 0 in
  for index = 0 to config.count - 1 do
    let program = case_program config index in
    on_case index program;
    let outcome, report = check config ~index program in
    List.iter
      (fun d ->
        match agreement d with
        | Some verdict ->
            incr drift_total;
            incr
              (match verdict with
              | Agree -> drift_agreements
              | Tie -> drift_ties
              | Disagree -> drift_disagreements)
        | None -> ())
      outcome.Oracle.drifts;
    Option.iter (fun r -> reports := r :: !reports) report
  done;
  {
    cases = config.count;
    reports = List.rev !reports;
    drift_total = !drift_total;
    drift_agreements = !drift_agreements;
    drift_ties = !drift_ties;
    drift_disagreements = !drift_disagreements;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>case %d (replay: --seed %d --index %d), %d statement(s) after \
     shrinking@,failures of the original kernel:@,"
    r.case_index r.seed r.case_index
    (Program.stmt_count r.shrunk);
  List.iter (Format.fprintf ppf "  %a@," Oracle.pp_failure) r.failures;
  Format.fprintf ppf "minimal reproducer (kernel source):@,%s@]"
    (Program.to_source r.shrunk)
