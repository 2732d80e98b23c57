(* Output checks for in-process jobs, in the manner of the fuzz oracle:
   final memory is compared against a scalar run of the original,
   unprepared kernel, over the arrays the source declares and the
   scalars the source makes observable (a scalar counts only where
   every block defining it must materialise it). *)

open Slp_ir
module Vm = Slp_vm

let feq x y = Float.equal x y || Float.abs (x -. y) <= 1e-9

let observable_scalars (prog : Program.t) =
  let liveness = Slp_analysis.Liveness.compute prog in
  let blocks = Program.blocks prog in
  List.filter
    (fun name ->
      List.for_all
        (fun b ->
          (not (List.mem name (Block.scalar_defs b)))
          || Slp_analysis.Liveness.demanded liveness b name)
        blocks)
    (List.map fst (Env.scalars prog.Program.env))

type reference = { prog : Program.t; memory : Vm.Memory.t; scalars : string list }

(* Final memory depends on the program and the data seed only; the
   machine model changes cycles, not values. *)
let reference ~seed (prog : Program.t) =
  let r = Vm.Scalar_exec.run ~seed ~machine:Slp_machine.Machine.intel_dunnington prog in
  { prog; memory = r.Vm.Scalar_exec.memory; scalars = observable_scalars prog }

(* The first divergence from the reference, if any. *)
let diff (r : reference) mem =
  let arrays () =
    List.find_map
      (fun (name, _) ->
        let a = Vm.Memory.array_values r.memory name in
        let b = Vm.Memory.array_values mem name in
        if Float.Array.length a <> Float.Array.length b then
          Some (Printf.sprintf "array %s: size %d vs %d" name (Float.Array.length a) (Float.Array.length b))
        else
          let rec scan i =
            if i >= Float.Array.length a then None
            else if feq (Float.Array.get a i) (Float.Array.get b i) then scan (i + 1)
            else
              Some
                (Printf.sprintf "array %s[%d]: reference %.17g vs %.17g" name i (Float.Array.get a i)
                   (Float.Array.get b i))
          in
          scan 0)
      (Env.arrays r.prog.Program.env)
  in
  match arrays () with
  | Some _ as d -> d
  | None ->
      List.find_map
        (fun name ->
          let a = Vm.Memory.scalar r.memory name and b = Vm.Memory.scalar mem name in
          if feq a b then None else Some (Printf.sprintf "scalar %s: reference %.17g vs %.17g" name a b))
        r.scalars

(* Run a compiled job once more, off the clock, and return its counters
   and final memory. *)
let rerun ~seed (c : Slp_pipeline.Pipeline.compiled) =
  let machine = c.Slp_pipeline.Pipeline.machine in
  match c.Slp_pipeline.Pipeline.vector with
  | None ->
      let r = Vm.Scalar_exec.run ~seed ~machine c.Slp_pipeline.Pipeline.reference in
      (r.Vm.Scalar_exec.counters, r.Vm.Scalar_exec.memory)
  | Some v ->
      let memory =
        Vm.Memory.create ~scalar_layout:c.Slp_pipeline.Pipeline.scalar_offsets ~env:v.Vm.Visa.env ()
      in
      Vm.Memory.init_arrays memory ~seed;
      let r = Vm.Vector_exec.run ~seed ~memory ~machine v in
      (r.Vm.Vector_exec.counters, r.Vm.Vector_exec.memory)

(* Static code size: Visa instructions, or statements for Scalar. *)
let code_size (c : Slp_pipeline.Pipeline.compiled) =
  match c.Slp_pipeline.Pipeline.vector with
  | Some v -> Vm.Visa.instr_count v
  | None -> Program.stmt_count c.Slp_pipeline.Pipeline.reference
