type t = {
  mutable scalar_ops : int;
  mutable vector_ops : int;
  mutable scalar_loads : int;
  mutable scalar_stores : int;
  mutable vector_loads : int;
  mutable vector_stores : int;
  mutable pack_loads : int;
  mutable pack_stores : int;
  mutable inserts : int;
  mutable extracts : int;
  mutable permutes : int;
  mutable broadcasts : int;
  mutable centicycles : int;
  mutable setup_centicycles : int;
}

let create () =
  {
    scalar_ops = 0;
    vector_ops = 0;
    scalar_loads = 0;
    scalar_stores = 0;
    vector_loads = 0;
    vector_stores = 0;
    pack_loads = 0;
    pack_stores = 0;
    inserts = 0;
    extracts = 0;
    permutes = 0;
    broadcasts = 0;
    centicycles = 0;
    setup_centicycles = 0;
  }

let copy t = { t with scalar_ops = t.scalar_ops }

let merge_into ~into t =
  into.scalar_ops <- into.scalar_ops + t.scalar_ops;
  into.vector_ops <- into.vector_ops + t.vector_ops;
  into.scalar_loads <- into.scalar_loads + t.scalar_loads;
  into.scalar_stores <- into.scalar_stores + t.scalar_stores;
  into.vector_loads <- into.vector_loads + t.vector_loads;
  into.vector_stores <- into.vector_stores + t.vector_stores;
  into.pack_loads <- into.pack_loads + t.pack_loads;
  into.pack_stores <- into.pack_stores + t.pack_stores;
  into.inserts <- into.inserts + t.inserts;
  into.extracts <- into.extracts + t.extracts;
  into.permutes <- into.permutes + t.permutes;
  into.broadcasts <- into.broadcasts + t.broadcasts;
  into.centicycles <- into.centicycles + t.centicycles;
  into.setup_centicycles <- into.setup_centicycles + t.setup_centicycles

(* Every field is an int. *)
let equal (a : t) b = a = b

let dynamic_instructions t =
  t.scalar_ops + t.vector_ops + t.scalar_loads + t.scalar_stores + t.vector_loads
  + t.vector_stores

let packing_instructions t =
  t.inserts + t.extracts + t.permutes + t.broadcasts + t.pack_loads + t.pack_stores

let total_instructions t = dynamic_instructions t + packing_instructions t

(* The one conversion to cycles.  The quotient is correctly rounded,
   so [100 * n] centicycles read exactly [n] cycles. *)
let to_cycles c = float_of_int c /. 100.0
let cycles t = to_cycles t.centicycles
let setup_cycles t = to_cycles t.setup_centicycles
let total_cycles t = to_cycles (t.centicycles + t.setup_centicycles)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>ops: %d scalar, %d vector@,mem: %d sld %d sst %d vld %d vst@,\
     pack: %d ins %d ext %d perm %d bcast %d pld %d pst@,\
     cycles: %.0f (+%.0f setup)@]"
    t.scalar_ops t.vector_ops t.scalar_loads t.scalar_stores t.vector_loads
    t.vector_stores t.inserts t.extracts t.permutes t.broadcasts t.pack_loads
    t.pack_stores (cycles t) (setup_cycles t)
