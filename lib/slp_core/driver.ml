open Slp_ir
module Obs = Slp_obs.Obs
module Remark = Slp_obs.Remark

type block_plan = {
  block : Block.t;
  nest : string list;
  deps : (int * int) list;
  grouping : Grouping.result;
  schedule : Schedule.t option;
  estimate : Cost.estimate option;
}

let blocks_with_nest (prog : Program.t) =
  let rec go nest items =
    List.concat_map
      (function
        | Program.Stmts b -> [ (b, List.rev nest) ]
        | Program.Loop l -> go (l.Program.index :: nest) l.Program.body)
      items
  in
  go [] prog.Program.body

let cost_remark obs ~block ~id message =
  if Obs.remarks_on obs then
    Obs.remark obs
      (Remark.make ~id ~pass:"cost" ~block:block.Block.label message)

(* One grouping/scheduling/estimation attempt. *)
let attempt ?(obs = Obs.none) ~options ~schedule_options ?grouping_fuel
    ?schedule_fuel ?params ~deps ~env ~config ~query ~nest block =
  let label = block.Block.label in
  let grouping =
    Obs.span obs
      ~args:[ ("block", label) ]
      ("grouping:" ^ label)
      (fun () ->
        Grouping.run ~options ?fuel:grouping_fuel ~obs ~dep_pairs:deps ~env
          ~config block)
  in
  if grouping.Grouping.groups = [] then
    { block; nest; deps; grouping; schedule = None; estimate = None }
  else begin
    let facts = Schedule.Facts.make ~deps block in
    let schedule =
      Obs.span obs
        ~args:[ ("block", label) ]
        ("schedule:" ^ label)
        (fun () ->
          Schedule.run_facts ~options:schedule_options ?fuel:schedule_fuel ~obs
            ~config facts grouping)
    in
    if not (Schedule.is_valid_facts facts schedule) then
      Slp_util.Slp_error.fail ~pass:Slp_util.Slp_error.Scheduling
        Slp_util.Slp_error.Schedule_failed
        "Driver.optimize_block: invalid schedule for %s" label;
    let estimate =
      Obs.span obs
        ~args:[ ("block", label) ]
        ("estimate:" ^ label)
        (fun () -> Cost.estimate_facts ?params ~query facts schedule)
    in
    if estimate.Cost.vector_cost < estimate.Cost.scalar_cost then begin
      cost_remark obs ~block ~id:"COST-VECTORIZE"
        (Printf.sprintf "vector cost %.1f beats scalar cost %.1f"
           estimate.Cost.vector_cost estimate.Cost.scalar_cost);
      { block; nest; deps; grouping; schedule = Some schedule; estimate = Some estimate }
    end
    else begin
      cost_remark obs ~block ~id:"COST-REJECT"
        (Printf.sprintf "vector cost %.1f does not beat scalar cost %.1f"
           estimate.Cost.vector_cost estimate.Cost.scalar_cost);
      { block; nest; deps; grouping; schedule = None; estimate = Some estimate }
    end
  end

let optimize_block ?(obs = Obs.none) ?(options = Grouping.default_options)
    ?(schedule_options = Schedule.default_options) ?grouping_fuel ?schedule_fuel
    ?params ?deps ~env ~config ~query ~nest block =
  let deps =
    match deps with Some d -> d | None -> Block.dep_pairs block
  in
  let first =
    attempt ~obs ~options ~schedule_options ?grouping_fuel ?schedule_fuel
      ?params ~deps ~env ~config ~query ~nest block
  in
  match first.schedule with
  | Some _ -> first
  | None when not options.Grouping.exclude_scattered ->
      (* The reuse-driven grouping was rejected by the cost gate; try
         again without scattered-store candidates, whose unpack costs
         are what usually sinks the estimate ("we skip the current
         basic block" is the paper's whole-block fallback; this retry
         salvages the profitably-groupable remainder first). *)
      cost_remark obs ~block ~id:"COST-RETRY-NOSCATTER"
        "retrying grouping with scattered-store candidates excluded";
      let second =
        attempt ~obs
          ~options:{ options with Grouping.exclude_scattered = true }
          ~schedule_options ?grouping_fuel ?schedule_fuel ?params ~deps ~env
          ~config ~query ~nest block
      in
      if second.schedule <> None then second else first
  | None -> first

type program_plan = { program : Program.t; plans : block_plan list }

let optimize_program ?obs ?options ?schedule_options ?grouping_fuel
    ?schedule_fuel ?params ?query_of ~config (prog : Program.t) =
  let env = prog.Program.env in
  let query_of =
    match query_of with
    | Some f -> f
    | None ->
        fun ~nest _block ->
          Cost.default_query ~env ~nest
            ~lanes:(max 2 (config.Config.datapath_bits / 64))
  in
  (* Precise per-block dependence pairs from the integer dependence
     solver; [Depend.blocks_with_box] follows the same traversal order
     as [blocks_with_nest]. *)
  let module Depend = Slp_depend.Depend in
  let boxed = Depend.blocks_with_box prog in
  let plans =
    List.map2
      (fun (block, nest) (_, box) ->
        optimize_block ?obs ?options ?schedule_options ?grouping_fuel
          ?schedule_fuel ?params
          ~deps:(Depend.block_dep_pairs ~box block)
          ~env ~config ~query:(query_of ~nest block) ~nest block)
      (blocks_with_nest prog) boxed
  in
  { program = prog; plans }

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
