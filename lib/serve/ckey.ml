module E = Slp_util.Slp_error
module Fnv = Slp_util.Fnv
module M = Slp_machine.Machine
module P = Slp_pipeline.Pipeline
module G = Slp_core.Grouping
module S = Slp_core.Schedule

type t = int64

(* Bumped whenever a job's payload changes for the same inputs, so an
   existing cache directory never serves a reply computed by older
   code.  2: Execute replies compare against the scalar reference's
   arrays, so layouts that add replica arrays report [correct].  3:
   the key hashes the resolved unroll factor and compile options, and
   a Compile key no longer hashes cores or seed.  4: cycles are summed
   in integer centicycles, so a multicore Execute reply's cycles are
   the exact hundredths, not a float sum's. *)
let version = "4"

(* Every field of the resolved options, in declaration order.  The
   record patterns are exhaustive on purpose: a field added to
   [Pipeline.options] or to the option records it holds fails to
   compile here (warning 9) until the key covers it. *)
let render_options
    {
      P.grouping = { G.recompute_weights; elimination; exclude_scattered; scatter_penalty };
      schedule = { S.selection; ordering_search };
      register_reuse;
      max_steps;
      solver_steps;
    } =
  Printf.sprintf "%b;%s;%b;%h;%s;%s;%b;%s;%d" recompute_weights
    (match elimination with Max_degree -> "max-degree" | Arbitrary -> "arbitrary")
    exclude_scattered scatter_penalty
    (match selection with Reuse_driven -> "reuse" | Program_order -> "program")
    (match ordering_search with Direct_reuse_only -> "direct" | Exhaustive -> "exhaustive")
    register_reuse
    (Option.fold ~none:"-" ~some:string_of_int max_steps)
    solver_steps

let of_program ~op ~(spec : Proto.spec) prog =
  Fnv.hash_fields
    ([
       version;
       Proto.jobop_name op;
       Slp_ir.Program.to_source prog;
       Proto.scheme_to_string spec.Proto.scheme;
       spec.Proto.machine.M.name;
       string_of_int spec.Proto.machine.M.simd_bits;
       string_of_int (Job.unroll spec);
       render_options (Job.options spec);
     ]
    @
    match op with
    | Proto.Compile -> []
    | Proto.Execute -> [ string_of_int spec.Proto.cores; string_of_int spec.Proto.seed ])

let of_spec ~op (spec : Proto.spec) =
  match
    Slp_frontend.Parser.parse_all ~max_errors:1 ~name:spec.Proto.name
      spec.Proto.kernel
  with
  | Result.Ok prog -> Result.Ok (of_program ~op ~spec prog, prog)
  | Result.Error [] ->
      Result.Error (E.make ~pass:E.Frontend E.Parse_error "empty kernel source")
  | Result.Error (d :: _) ->
      Result.Error
        (E.make
           ~span:{ E.line = d.Slp_frontend.Parser.line; col = d.Slp_frontend.Parser.col }
           ~pass:E.Frontend E.Parse_error d.Slp_frontend.Parser.message)
  | exception exn -> Result.Error (Slp_pipeline.Pipeline.error_of_exn exn)

let to_hex = Fnv.to_hex
