(** Recursive-descent parser for the kernel language.

    Grammar (comments run to end of line):
    {v
    program   ::= decl* item*
    decl      ::= ty IDENT ("[" INT "]")* ";"
    item      ::= stmt | loop
    loop      ::= "for" IDENT "=" aff "to" aff ("step" INT)? "{" item* "}"
    stmt      ::= lvalue "=" expr ";"
    lvalue    ::= IDENT ("[" aff "]")*
    expr      ::= additive with "+ - * /", unary "-", "sqrt(e)",
                  "abs(e)", "min(e,e)", "max(e,e)", parentheses
    aff       ::= expr restricted to affine forms over loop indices
    v}

    Loop upper bounds are exclusive ([for i = 0 to n] runs [n] times).
    Consecutive statements form one basic block. *)

exception Error of string * int * int

type diagnostic = { message : string; line : int; col : int }
(** One parse/validation problem, with its 1-based source position. *)

val parse_all :
  ?max_errors:int ->
  name:string ->
  string ->
  (Slp_ir.Program.t, diagnostic list) result
(** Parses with statement-level error recovery: on a syntax error the
    parser records a diagnostic, resynchronises at the next [';'] (or
    before the next ['}'], [for], or end of input) and keeps going, so
    one compile reports every independent mistake.  Collection stops
    after [max_errors] diagnostics (default 20, must be [>= 1]).
    Semantic validation runs only when the parse itself was clean.
    Lexer errors are not recoverable and yield a single diagnostic. *)

val parse : name:string -> string -> Slp_ir.Program.t
(** Parses and validates; raises [Error] on syntax or semantic
    problems.  Equivalent to {!parse_all} with [max_errors = 1],
    raising the first diagnostic. *)

val parse_file : string -> Slp_ir.Program.t
(** [parse_file path] with the program named after the basename. *)
