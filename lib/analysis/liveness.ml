open Slp_ir

type t = {
  readers : (string, Block.t list) Hashtbl.t;
  exposed_cache : (string, (string, unit) Hashtbl.t) Hashtbl.t;
}

let block_upward_exposed (b : Block.t) =
  let defined = Hashtbl.create 16 in
  let exposed = Hashtbl.create 16 in
  List.iter
    (fun (s : Stmt.t) ->
      List.iter
        (function
          | Operand.Scalar v ->
              if not (Hashtbl.mem defined v) then Hashtbl.replace exposed v ()
          | Operand.Const _ | Operand.Elem _ -> ())
        (Stmt.uses s);
      (* Subscript variables of an array store are reads too (a scalar
         store target is a write, not a read). *)
      (match s.Stmt.lhs with
      | Operand.Elem _ ->
          List.iter
            (fun v -> if not (Hashtbl.mem defined v) then Hashtbl.replace exposed v ())
            (Operand.used_vars s.Stmt.lhs)
      | Operand.Scalar _ | Operand.Const _ -> ());
      match s.Stmt.lhs with
      | Operand.Scalar v -> Hashtbl.replace defined v ()
      | Operand.Const _ | Operand.Elem _ -> ())
    b.Block.stmts;
  exposed

let compute (prog : Program.t) =
  let readers = Hashtbl.create 32 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun v ->
          let set = Option.value (Hashtbl.find_opt readers v) ~default:[] in
          if not (List.exists (fun (b' : Block.t) -> String.equal b'.Block.label b.Block.label) set)
          then Hashtbl.replace readers v (b :: set))
        (Block.scalar_uses b))
    (Program.blocks prog);
  { readers; exposed_cache = Hashtbl.create 16 }

let upward_exposed t (b : Block.t) v =
  let exposed =
    match Hashtbl.find_opt t.exposed_cache b.Block.label with
    | Some e -> e
    | None ->
        let e = block_upward_exposed b in
        Hashtbl.replace t.exposed_cache b.Block.label e;
        e
  in
  Hashtbl.mem exposed v

let read_in_other_block t (b : Block.t) v =
  match Hashtbl.find_opt t.readers v with
  | None -> false
  | Some bs ->
      List.exists
        (fun (b' : Block.t) -> not (String.equal b'.Block.label b.Block.label))
        bs

let demanded t b v = upward_exposed t b v || read_in_other_block t b v

(* A scalar's final slot value is architecturally defined only when
   every block that writes it must materialise it.  Scalars no block
   writes keep their initial value and count too. *)
let observable_scalars (prog : Program.t) =
  let t = compute prog in
  let blocks = Program.blocks prog in
  List.filter
    (fun name ->
      List.for_all
        (fun b -> (not (List.mem name (Block.scalar_defs b))) || demanded t b name)
        blocks)
    (List.map fst (Env.scalars prog.Program.env))
