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
  mutable cycles : float;
  mutable setup_cycles : float;
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
    cycles = 0.0;
    setup_cycles = 0.0;
  }

let copy t = { t with scalar_ops = t.scalar_ops }

let add a b =
  {
    scalar_ops = a.scalar_ops + b.scalar_ops;
    vector_ops = a.vector_ops + b.vector_ops;
    scalar_loads = a.scalar_loads + b.scalar_loads;
    scalar_stores = a.scalar_stores + b.scalar_stores;
    vector_loads = a.vector_loads + b.vector_loads;
    vector_stores = a.vector_stores + b.vector_stores;
    pack_loads = a.pack_loads + b.pack_loads;
    pack_stores = a.pack_stores + b.pack_stores;
    inserts = a.inserts + b.inserts;
    extracts = a.extracts + b.extracts;
    permutes = a.permutes + b.permutes;
    broadcasts = a.broadcasts + b.broadcasts;
    cycles = a.cycles +. b.cycles;
    setup_cycles = a.setup_cycles +. b.setup_cycles;
  }

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
  into.cycles <- into.cycles +. t.cycles;
  into.setup_cycles <- into.setup_cycles +. t.setup_cycles

let equal a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.scalar_ops = b.scalar_ops && a.vector_ops = b.vector_ops
  && a.scalar_loads = b.scalar_loads
  && a.scalar_stores = b.scalar_stores
  && a.vector_loads = b.vector_loads
  && a.vector_stores = b.vector_stores
  && a.pack_loads = b.pack_loads
  && a.pack_stores = b.pack_stores
  && a.inserts = b.inserts && a.extracts = b.extracts && a.permutes = b.permutes
  && a.broadcasts = b.broadcasts
  && same a.cycles b.cycles
  && same a.setup_cycles b.setup_cycles

let dynamic_instructions t =
  t.scalar_ops + t.vector_ops + t.scalar_loads + t.scalar_stores + t.vector_loads
  + t.vector_stores

let packing_instructions t =
  t.inserts + t.extracts + t.permutes + t.broadcasts + t.pack_loads + t.pack_stores

let total_instructions t = dynamic_instructions t + packing_instructions t

let total_cycles t = t.cycles +. t.setup_cycles

let pp ppf t =
  Format.fprintf ppf
    "@[<v>ops: %d scalar, %d vector@,mem: %d sld %d sst %d vld %d vst@,\
     pack: %d ins %d ext %d perm %d bcast %d pld %d pst@,\
     cycles: %.0f (+%.0f setup)@]"
    t.scalar_ops t.vector_ops t.scalar_loads t.scalar_stores t.vector_loads
    t.vector_stores t.inserts t.extracts t.permutes t.broadcasts t.pack_loads
    t.pack_stores t.cycles t.setup_cycles
