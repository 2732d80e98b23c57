(** Basic blocks: the unit of SLP optimization.

    "The input to our compiler framework is a set of basic blocks of a
    program" (paper §3).  A block is an ordered statement sequence; its
    dependence relation (RAW/WAR/WAW between earlier and later
    statements) constrains every grouping and scheduling decision. *)

type t = { label : string; stmts : Stmt.t list }

val make : ?label:string -> Stmt.t list -> t
(** Raises [Invalid_argument] on duplicate statement ids. *)

val of_rhs : ?label:string -> (Operand.t * Expr.t) list -> t
(** Convenience: number statements 1..n in order. *)

val find : t -> int -> Stmt.t
(** Statement by id; raises [Not_found]. *)

val stmt_ids : t -> int list
val size : t -> int

val depends : t -> int -> int -> bool
(** [depends b p q] — does statement [p] (earlier in program order)
    carry a dependence to statement [q]?  Requires [p] before [q] in
    the block; raises [Invalid_argument] otherwise. *)

val dep_pairs : t -> (int * int) list
(** All dependent (earlier, later) id pairs. *)

val independent : t -> int -> int -> bool
(** Neither order carries a dependence — precondition for putting two
    statements in one superword statement (§4.1 constraint 1). *)

val scalar_uses : t -> string list
(** Scalar variables read anywhere in the block, sorted, deduplicated. *)

val scalar_defs : t -> string list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
