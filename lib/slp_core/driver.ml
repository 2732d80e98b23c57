open Slp_ir
module E = Slp_util.Slp_error
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark

type site = {
  block : Block.t;
  nest : string list;
  deps : (int * int) list;
  facts : Schedule.Facts.t Lazy.t;
}

type block_plan = {
  block : Block.t;
  nest : string list;
  deps : (int * int) list;
  grouping : Grouping.result;
  schedule : Schedule.t option;
  estimate : Cost.estimate option;
}

(* One walk of the loop tree carries both the nest and the iteration
   box, so a block's pairs are computed beside the block itself. *)
let sites ~precise (prog : Program.t) =
  let module Depend = Slp_depend.Depend in
  let rec go nest box items =
    List.concat_map
      (function
        | Program.Stmts block ->
            let deps =
              if precise then Depend.block_dep_pairs ~box block
              else Block.dep_pairs block
            in
            let facts = lazy (Schedule.Facts.make ~deps block) in
            [ { block; nest = List.rev nest; deps; facts } ]
        | Program.Loop l ->
            let box =
              if not precise then box
              else
                Depend.Box.add box l.Program.index
                  (Depend.Box.of_bounds ~lo:l.Program.lo ~hi:l.Program.hi
                     ~step:l.Program.step)
            in
            go (l.Program.index :: nest) box l.Program.body)
      items
  in
  go [] Depend.Box.empty prog.Program.body

(* The message is formatted only when [obs] takes remarks. *)
let cost_remark obs ~block ~id fmt =
  if Obs.remarks_on obs then
    Printf.ksprintf
      (fun message ->
        Obs.remark obs (Remark.make ~id ~pass:"cost" ~block:block.Block.label message))
      fmt
  else Printf.ikfprintf ignore () fmt

let gate ?(obs = Obs.none) ?params ~query ~schedule (site : site) grouping =
  let ({ block; nest; deps; facts } : site) = site in
  let plan schedule estimate = { block; nest; deps; grouping; schedule; estimate } in
  if grouping.Grouping.groups = [] then plan None None
  else begin
    let label = block.Block.label in
    let span pass f = Obs.span obs ~args:[ ("block", label) ] (pass ^ ":" ^ label) f in
    let facts = Lazy.force facts in
    let sched = span "schedule" (fun () -> schedule facts grouping) in
    if not (Schedule.is_valid_facts facts sched) then
      E.fail ~pass:E.Scheduling E.Schedule_failed
        "Driver.gate: invalid schedule for %s" label;
    let estimate =
      span "estimate" (fun () -> Cost.estimate_facts ?params ~query facts sched)
    in
    let vector = estimate.Cost.vector_cost and scalar = estimate.Cost.scalar_cost in
    if vector < scalar then begin
      cost_remark obs ~block ~id:"COST-VECTORIZE" "vector cost %.1f beats scalar cost %.1f"
        vector scalar;
      plan (Some sched) (Some estimate)
    end
    else begin
      cost_remark obs ~block ~id:"COST-REJECT"
        "vector cost %.1f does not beat scalar cost %.1f" vector scalar;
      plan None (Some estimate)
    end
  end

let optimize_block ?(obs = Obs.none) ?(options = Grouping.default_options)
    ?(schedule_options = Schedule.default_options) ?grouping_fuel ?schedule_fuel
    ?params ~env ~config ~query (site : site) =
  let label = site.block.Block.label in
  let attempt options =
    let grouping =
      Obs.span obs
        ~args:[ ("block", label) ]
        ("grouping:" ^ label)
        (fun () ->
          Grouping.run ~options ?fuel:grouping_fuel ~obs ~dep_pairs:site.deps
            ~env ~config site.block)
    in
    gate ~obs ?params ~query site grouping
      ~schedule:
        (Schedule.run_facts ~options:schedule_options ?fuel:schedule_fuel ~obs
           ~config)
  in
  let first = attempt options in
  match first.schedule with
  | Some _ -> first
  | None when not options.Grouping.exclude_scattered ->
      (* The reuse-driven grouping was rejected by the cost gate; try
         again without scattered-store candidates, whose unpack costs
         are what usually sinks the estimate ("we skip the current
         basic block" is the paper's whole-block fallback; this retry
         salvages the profitably-groupable remainder first). *)
      cost_remark obs ~block:site.block ~id:"COST-RETRY-NOSCATTER"
        "retrying grouping with scattered-store candidates excluded";
      let second = attempt { options with Grouping.exclude_scattered = true } in
      if second.schedule <> None then second else first
  | None -> first

type program_plan = { program : Program.t; plans : block_plan list }

let superword_statement_count plan =
  List.fold_left
    (fun acc p ->
      match p.schedule with
      | None -> acc
      | Some s ->
          acc
          + List.length
              (List.filter
                 (function Schedule.Superword _ -> true | Schedule.Single _ -> false)
                 s.Schedule.items))
    0 plan.plans
