module E = Slp_util.Slp_error
module Fnv = Slp_util.Fnv
module M = Slp_machine.Machine

type t = int64

let opt_int = function None -> "-" | Some v -> string_of_int v

(* Bumped whenever a job's payload changes for the same inputs, so an
   existing cache directory never serves a reply computed by older
   code.  2: Execute replies compare against the scalar reference's
   arrays, so layouts that add replica arrays report [correct]. *)
let version = "2"

let of_program ~op ~(spec : Proto.spec) prog =
  Fnv.hash_fields
    [
      version;
      Proto.jobop_name op;
      Slp_ir.Program.to_source prog;
      Proto.scheme_to_string spec.Proto.scheme;
      spec.Proto.machine.M.name;
      string_of_int spec.Proto.machine.M.simd_bits;
      opt_int spec.Proto.unroll;
      opt_int spec.Proto.max_steps;
      opt_int spec.Proto.solver_steps;
      string_of_int spec.Proto.cores;
      string_of_int spec.Proto.seed;
    ]

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
