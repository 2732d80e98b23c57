type cache_level = { size_bytes : int; ways : int; line_bytes : int; latency : int }

type op_costs = {
  scalar_op : int;
  vector_op : int;
  divide : int;
  square_root : int;
  insert : int;
  extract : int;
  permute : int;
  broadcast : int;
  load_issue : int;
  store_issue : int;
}

type t = {
  name : string;
  simd_bits : int;
  vector_registers : int;
  cores : int;
  frequency_ghz : float;
  costs : op_costs;
  l1 : cache_level;
  l2 : cache_level;
  l3 : cache_level;
  memory_latency : int;
  contention_per_core : int;
}

let intel_dunnington =
  {
    name = "Intel Dunnington (Xeon E7450)";
    simd_bits = 128;
    vector_registers = 16;
    cores = 12;
    frequency_ghz = 2.40;
    costs =
      {
        scalar_op = 1;
        vector_op = 1;
        divide = 16;
        square_root = 22;
        insert = 2;
        extract = 2;
        permute = 2;
        broadcast = 2;
        load_issue = 1;
        store_issue = 1;
      };
    l1 = { size_bytes = 32 * 1024; ways = 8; line_bytes = 64; latency = 3 };
    (* 18MB of L2 as 6 x 3MB shared by core pairs: model the 3MB slice
       a core effectively owns. *)
    l2 = { size_bytes = 3 * 1024 * 1024; ways = 12; line_bytes = 64; latency = 14 };
    (* 24MB of L3 as 2 x 12MB per socket. *)
    l3 = { size_bytes = 12 * 1024 * 1024; ways = 12; line_bytes = 64; latency = 42 };
    memory_latency = 210;
    contention_per_core = 6;
  }

let amd_phenom_ii =
  {
    name = "AMD Phenom II X4 945";
    simd_bits = 128;
    vector_registers = 16;
    cores = 4;
    frequency_ghz = 3.00;
    costs =
      {
        scalar_op = 1;
        vector_op = 1;
        divide = 18;
        square_root = 25;
        (* The paper attributes the lower AMD savings to higher
           packing/unpacking costs. *)
        insert = 3;
        extract = 3;
        permute = 3;
        broadcast = 3;
        load_issue = 1;
        store_issue = 1;
      };
    l1 = { size_bytes = 64 * 1024; ways = 2; line_bytes = 64; latency = 3 };
    l2 = { size_bytes = 512 * 1024; ways = 16; line_bytes = 64; latency = 15 };
    l3 = { size_bytes = 6 * 1024 * 1024; ways = 48; line_bytes = 64; latency = 48 };
    memory_latency = 230;
    contention_per_core = 8;
  }

let to_string m = if String.equal m.name amd_phenom_ii.name then "amd" else "intel"

let of_string = function
  | "intel" | "dunnington" -> Some intel_dunnington
  | "amd" | "phenom" -> Some amd_phenom_ii
  | _ -> None

let with_simd_bits m bits =
  if bits <= 0 || bits mod 64 <> 0 then
    invalid_arg "Machine.with_simd_bits: bits must be a positive multiple of 64";
  { m with name = Printf.sprintf "%s [%d-bit SIMD]" m.name bits; simd_bits = bits }

let lanes m ~elem_bytes = max 1 (m.simd_bits / 8 / elem_bytes)

let pp_bytes b =
  if b >= 1024 * 1024 then Printf.sprintf "%dMB" (b / 1024 / 1024)
  else Printf.sprintf "%dKB" (b / 1024)

let describe m =
  [
    ("Number of Cores", string_of_int m.cores);
    ("Core Type", Printf.sprintf "%s (clocked at %.2fGHz)" m.name m.frequency_ghz);
    ( "L1 Data",
      Printf.sprintf "%s/core; %d-way; %d-byte line size" (pp_bytes m.l1.size_bytes)
        m.l1.ways m.l1.line_bytes );
    ( "L2",
      Printf.sprintf "%s; %d-way; %d-byte line size" (pp_bytes m.l2.size_bytes)
        m.l2.ways m.l2.line_bytes );
    ( "L3",
      Printf.sprintf "%s; %d-way; %d-byte line size" (pp_bytes m.l3.size_bytes)
        m.l3.ways m.l3.line_bytes );
    ("SIMD", Printf.sprintf "%d-bit, %d vector registers" m.simd_bits m.vector_registers);
  ]

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-16s %s@," k v) (describe m);
  Format.fprintf ppf "@]"
