module E = Slp_util.Slp_error

type kind =
  | Out_of_bounds of { index : int; bound : int }
  | Rank_mismatch
  | Unknown_array
  | Unset_spill of { slot : int }
  | Injected_fault

type info = { kind : kind; array : string; stmt : int option }

exception Trap of info

let to_string i =
  let at =
    match i.stmt with Some s -> Printf.sprintf " at statement S%d" s | None -> ""
  in
  match i.kind with
  | Out_of_bounds { index; bound } ->
      Printf.sprintf "out-of-bounds: %s index %d out of [0,%d)%s" i.array index
        bound at
  | Rank_mismatch -> Printf.sprintf "rank mismatch on %s%s" i.array at
  | Unknown_array -> Printf.sprintf "unknown array %s%s" i.array at
  | Unset_spill { slot } ->
      Printf.sprintf "spill slot %d reloaded before any store%s" slot at
  | Injected_fault -> Printf.sprintf "injected memory fault on %s%s" i.array at

let pp ppf i = Format.pp_print_string ppf (to_string i)

let oob ?stmt ~array ~index ~bound () =
  raise (Trap { kind = Out_of_bounds { index; bound }; array; stmt })

let rank_mismatch ?stmt ~array () = raise (Trap { kind = Rank_mismatch; array; stmt })
let unknown_array ?stmt ~array () = raise (Trap { kind = Unknown_array; array; stmt })

let unset_spill ?stmt ~slot () =
  raise (Trap { kind = Unset_spill { slot }; array = "<spill>"; stmt })

let () =
  Printexc.register_printer (function
    | Trap i -> Some ("Trap: " ^ to_string i)
    | _ -> None)

(* -- deterministic fault injection --------------------------------- *)

type fault = Memory_fault | Cache_fault

let fault_enabled = ref false
let pending : (fault * int) option ref = ref None

let arm_fault ~fault ~after =
  pending := Some (fault, max 0 after);
  fault_enabled := true

let disarm_fault () =
  pending := None;
  fault_enabled := false

(* Called when [fault_enabled] on every memory access: from
   [Cache.access] in timed runs of the interpreters and the compiled
   engine, and from the engine's values-only closures at the same
   point of the same access.  Counts down [after] accesses, then
   fires exactly once and disarms itself, so the scalar fallback that
   follows a fault runs clean. *)
let fault_tick () =
  match !pending with
  | None -> ()
  | Some (fault, n) ->
      if n > 0 then pending := Some (fault, n - 1)
      else begin
        disarm_fault ();
        match fault with
        | Memory_fault ->
            raise (Trap { kind = Injected_fault; array = "<injected>"; stmt = None })
        | Cache_fault ->
            raise
              (E.Error
                 (E.make ~pass:E.Vm E.Injected
                    "injected cache fault (seeded fault-injection harness)"))
      end

let with_fault ~fault ~after f =
  arm_fault ~fault ~after;
  Fun.protect ~finally:disarm_fault f
