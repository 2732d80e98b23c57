(* The paper's §6 worked example, step by step.

   Builds the Figure 15(a) basic block, runs candidate identification,
   the variable pack conflicting graph, grouping and scheduling, and
   prints each stage — reproducing the transformations of Figures
   15(b)-(d).

     dune exec examples/paper_walkthrough.exe *)

open Slp_ir
module Config = Slp_core.Config

let env () =
  let env = Env.create () in
  List.iter
    (fun v -> Env.declare_scalar env v Types.F64)
    [ "a"; "b"; "c"; "d"; "g"; "h"; "q"; "r" ];
  Env.declare_array env "A" Types.F64 [ 1024 ];
  Env.declare_array env "B" Types.F64 [ 4096 ];
  env

let block () =
  let open Expr.Infix in
  let i4 = 4 @* i "i" and i2 = 2 @* i "i" in
  Block.of_rhs ~label:"fig15a"
    [
      (Operand.Scalar "a", arr "A" [ i "i" ]);
      (Operand.Scalar "c", sc "a" * arr "B" [ i4 ]);
      (Operand.Scalar "g", sc "q" * arr "B" [ i4 @+ -2 ]);
      (Operand.Scalar "b", arr "A" [ i "i" @+ 1 ]);
      (Operand.Scalar "d", sc "b" * arr "B" [ i4 @+ 4 ]);
      (Operand.Scalar "h", sc "r" * arr "B" [ i4 @+ 2 ]);
      (Operand.Elem ("A", [ i2 ]), sc "d" + (sc "a" * sc "c"));
      (Operand.Elem ("A", [ i2 @+ 2 ]), sc "g" + (sc "r" * sc "h"));
    ]

let () =
  let env = env () in
  let config = Config.make ~datapath_bits:128 () in
  let b = block () in
  Format.printf "Figure 15(a) — the input basic block:@.%a@." Block.pp b;

  (* Step 1: candidate groups. *)
  let units = List.map (Slp_core.Units.of_stmt ~env) b.Block.stmts in
  let deps = Slp_core.Units.Deps.build ~dep_pairs:(Block.dep_pairs b) units in
  let candidates = Slp_core.Candidate.find ~env ~config ~units ~deps in
  Format.printf "@.%d candidate groups:@." (List.length candidates);
  List.iter (fun c -> Format.printf "  %a@." Slp_core.Candidate.pp c) candidates;

  (* Step 2: the variable pack conflicting graph. *)
  let vp = Slp_core.Packgraph.build ~deps ~candidates in
  Format.printf "@.%a@." Slp_core.Packgraph.pp vp;

  (* Steps 3-4 + iteration: the full grouping. *)
  let grouping = Slp_core.Grouping.run ~dep_pairs:(Block.dep_pairs b) ~env ~config b in
  Format.printf "grouping decisions (%d):@." grouping.Slp_core.Grouping.decisions;
  List.iter
    (fun ms ->
      Format.printf "  {%s}@."
        (String.concat ", " (List.map (fun m -> "S" ^ string_of_int m) ms)))
    grouping.Slp_core.Grouping.groups;

  (* Scheduling fixes execution order and lane order (Figure 15(c)). *)
  let sched = Slp_core.Schedule.run ~dep_pairs:(Block.dep_pairs b) ~config b grouping in
  Format.printf "@.schedule (compare Figure 15(c)):@.%a@." Slp_core.Schedule.pp sched;
  Format.printf "@.The paper reports three superword reuses for this grouping@.";
  Format.printf "(<d,g>, <c,h>, <a,r>) versus one for the original SLP algorithm.@."
