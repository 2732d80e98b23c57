open Slp_ir

exception Error of string * int * int

type state = {
  tokens : Token.located array;
  mutable cursor : int;
  env : Env.t;
  mutable next_block : int;
}

let current st = st.tokens.(st.cursor)
let peek_token st = (current st).Token.token

let fail st fmt =
  let { Token.line; col; _ } = current st in
  Format.kasprintf (fun msg -> raise (Error (msg, line, col))) fmt

let advance st = if st.cursor < Array.length st.tokens - 1 then st.cursor <- st.cursor + 1

let expect st tok =
  if peek_token st = tok then advance st
  else
    fail st "expected %s, found %s" (Token.to_string tok)
      (Token.to_string (peek_token st))

let expect_ident st =
  match peek_token st with
  | Token.Ident name ->
      advance st;
      name
  | other -> fail st "expected an identifier, found %s" (Token.to_string other)

let expect_int st =
  match peek_token st with
  | Token.Int n ->
      advance st;
      n
  | other -> fail st "expected an integer, found %s" (Token.to_string other)

(* -- expressions --------------------------------------------------- *)

let rec parse_expr st = parse_additive st

and parse_additive st =
  let rec loop acc =
    match peek_token st with
    | Token.Plus ->
        advance st;
        loop (Expr.Bin (Types.Add, acc, parse_multiplicative st))
    | Token.Minus ->
        advance st;
        loop (Expr.Bin (Types.Sub, acc, parse_multiplicative st))
    | _ -> acc
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop acc =
    match peek_token st with
    | Token.Star ->
        advance st;
        loop (Expr.Bin (Types.Mul, acc, parse_unary st))
    | Token.Slash ->
        advance st;
        loop (Expr.Bin (Types.Div, acc, parse_unary st))
    | _ -> acc
  in
  loop (parse_unary st)

and parse_unary st =
  match peek_token st with
  | Token.Minus ->
      advance st;
      Expr.Un (Types.Neg, parse_unary st)
  | Token.Kw_sqrt ->
      advance st;
      expect st Token.Lparen;
      let e = parse_expr st in
      expect st Token.Rparen;
      Expr.Un (Types.Sqrt, e)
  | Token.Kw_abs ->
      advance st;
      expect st Token.Lparen;
      let e = parse_expr st in
      expect st Token.Rparen;
      Expr.Un (Types.Abs, e)
  | Token.Kw_min | Token.Kw_max ->
      let op = if peek_token st = Token.Kw_min then Types.Min else Types.Max in
      advance st;
      expect st Token.Lparen;
      let a = parse_expr st in
      expect st Token.Comma;
      let b = parse_expr st in
      expect st Token.Rparen;
      Expr.Bin (op, a, b)
  | _ -> parse_primary st

and parse_primary st =
  match peek_token st with
  | Token.Int n ->
      advance st;
      Expr.Leaf (Operand.Const (float_of_int n))
  | Token.Float f ->
      advance st;
      Expr.Leaf (Operand.Const f)
  | Token.Lparen ->
      advance st;
      let e = parse_expr st in
      expect st Token.Rparen;
      e
  | Token.Ident _ ->
      let name = expect_ident st in
      let subscripts = parse_subscripts st in
      if subscripts = [] then Expr.Leaf (Operand.Scalar name)
      else Expr.Leaf (Operand.Elem (name, subscripts))
  | other -> fail st "expected an expression, found %s" (Token.to_string other)

(* -- affine conversion --------------------------------------------- *)

and affine_of_expr st e =
  let rec go = function
    | Expr.Leaf (Operand.Const f) ->
        if Float.is_integer f then Affine.const (int_of_float f)
        else fail st "non-integer constant %g in affine context" f
    | Expr.Leaf (Operand.Scalar v) -> Affine.var v
    | Expr.Leaf (Operand.Elem (b, _)) ->
        fail st "array reference %s not allowed in affine context" b
    | Expr.Un (Types.Neg, e) -> Affine.neg (go e)
    | Expr.Un ((Types.Abs | Types.Sqrt), _) ->
        fail st "non-affine operator in subscript or bound"
    | Expr.Bin (Types.Add, a, b) -> Affine.add (go a) (go b)
    | Expr.Bin (Types.Sub, a, b) -> Affine.sub (go a) (go b)
    | Expr.Bin (Types.Mul, a, b) -> begin
        let aa = go a and ab = go b in
        match (Affine.to_const aa, Affine.to_const ab) with
        | Some k, _ -> Affine.scale k ab
        | _, Some k -> Affine.scale k aa
        | None, None -> fail st "non-linear subscript or bound"
      end
    | Expr.Bin ((Types.Div | Types.Min | Types.Max), _, _) ->
        fail st "non-affine operator in subscript or bound"
  in
  go e

and parse_subscripts st =
  let rec loop acc =
    match peek_token st with
    | Token.Lbracket ->
        advance st;
        let e = parse_expr st in
        expect st Token.Rbracket;
        loop (affine_of_expr st e :: acc)
    | _ -> List.rev acc
  in
  loop []

(* -- declarations, statements, loops ------------------------------- *)

let parse_decl st ty =
  let name = expect_ident st in
  let rec dims acc =
    match peek_token st with
    | Token.Lbracket ->
        advance st;
        let d = expect_int st in
        expect st Token.Rbracket;
        dims (d :: acc)
    | _ -> List.rev acc
  in
  let ds = dims [] in
  (try
     if ds = [] then Env.declare_scalar st.env name ty
     else Env.declare_array st.env name ty ds
   with Invalid_argument msg -> fail st "%s" msg);
  expect st Token.Semicolon

let parse_stmt st ~next_id =
  let name = expect_ident st in
  let subscripts = parse_subscripts st in
  let lhs =
    if subscripts = [] then Operand.Scalar name else Operand.Elem (name, subscripts)
  in
  expect st Token.Assign;
  let rhs = parse_expr st in
  expect st Token.Semicolon;
  Stmt.make ~id:next_id ~lhs ~rhs

(* -- error recovery ------------------------------------------------- *)

type diagnostic = { message : string; line : int; col : int }

(* Raised internally once [max_errors] diagnostics have been
   collected; never escapes [parse_all]. *)
exception Stop

let parse_all ?(max_errors = 20) ~name src =
  if max_errors < 1 then invalid_arg "Parser.parse_all: max_errors must be >= 1";
  match Lexer.tokenize src with
  | exception Lexer.Error (msg, line, col) ->
      (* Lexing is not recoverable: the token stream ends here. *)
      Result.Error [ { message = msg; line; col } ]
  | tokens ->
      let st =
        { tokens = Array.of_list tokens; cursor = 0; env = Env.create (); next_block = 1 }
      in
      let diags = ref [] in
      let count = ref 0 in
      let record (msg, line, col) =
        incr count;
        diags := { message = msg; line; col } :: !diags;
        if !count >= max_errors then raise Stop
      in
      (* Statement-level resynchronisation: consume through the next
         ';', or stop before a token that opens the next construct. *)
      let rec sync_stmt () =
        match peek_token st with
        | Token.Semicolon -> advance st
        | Token.Rbrace | Token.Kw_for | Token.Eof -> ()
        | _ ->
            advance st;
            sync_stmt ()
      in
      (* Loop-level resynchronisation after a broken header: skip to
         the loop body if one follows and step over its balanced
         braces, otherwise stop at the enclosing construct. *)
      let rec sync_loop depth =
        match peek_token st with
        | Token.Eof -> ()
        | Token.Lbrace ->
            advance st;
            sync_loop (depth + 1)
        | Token.Rbrace when depth > 0 ->
            advance st;
            if depth > 1 then sync_loop (depth - 1)
        | Token.Rbrace -> ()
        | Token.Semicolon when depth = 0 -> advance st
        | _ ->
            advance st;
            sync_loop depth
      in
      let rec parse_items_rec () =
        let items = ref [] in
        let pending = ref [] in
        let next_id = ref 1 in
        let flush () =
          if !pending <> [] then begin
            let label = Printf.sprintf "bb%d" st.next_block in
            st.next_block <- st.next_block + 1;
            items := Program.Stmts (Block.make ~label (List.rev !pending)) :: !items;
            pending := []
          end
        in
        let rec loop () =
          match peek_token st with
          | Token.Ident _ ->
              (match parse_stmt st ~next_id:!next_id with
              | s ->
                  pending := s :: !pending;
                  incr next_id
              | exception Error (m, l, c) ->
                  record (m, l, c);
                  sync_stmt ());
              loop ()
          | Token.Kw_for ->
              flush ();
              next_id := 1;
              (match parse_loop () with
              | l -> items := Program.Loop l :: !items
              | exception Error (m, l, c) ->
                  record (m, l, c);
                  sync_loop 0);
              loop ()
          | _ -> ()
        in
        loop ();
        flush ();
        List.rev !items
      and parse_loop () =
        advance st;
        let index = expect_ident st in
        expect st Token.Assign;
        let lo = affine_of_expr st (parse_expr st) in
        expect st Token.Kw_to;
        let hi = affine_of_expr st (parse_expr st) in
        let step =
          if peek_token st = Token.Kw_step then begin
            advance st;
            expect_int st
          end
          else 1
        in
        if step <= 0 then fail st "loop step must be positive";
        expect st Token.Lbrace;
        let body = parse_items_rec () in
        expect st Token.Rbrace;
        { Program.index; lo; hi; step; body }
      in
      let program = ref None in
      (try
         let rec decls () =
           match peek_token st with
           | Token.Kw_type ty ->
               advance st;
               (match parse_decl st ty with
               | () -> ()
               | exception Error (m, l, c) ->
                   record (m, l, c);
                   sync_stmt ());
               decls ()
           | _ -> ()
         in
         decls ();
         let body = ref (parse_items_rec ()) in
         let rec finish () =
           match peek_token st with
           | Token.Eof -> ()
           | _ ->
               (try expect st Token.Eof with Error (m, l, c) -> record (m, l, c));
               (* Step over the offending token and keep collecting. *)
               advance st;
               body := !body @ parse_items_rec ();
               finish ()
         in
         finish ();
         if !diags = [] then begin
           let p = Program.make ~name ~env:st.env !body in
           match Program.validate p with
           | Ok () -> program := Some p
           | Error msg ->
               record (msg, (current st).Token.line, (current st).Token.col)
         end
       with Stop -> ());
      (match (!diags, !program) with
      | [], Some p -> Ok p
      | [], None -> assert false
      | ds, _ -> Result.Error (List.rev ds))

(* The strict single-error entry point: identical messages and
   positions to the historical parser — the first diagnostic aborts. *)
let parse ~name src =
  match parse_all ~max_errors:1 ~name src with
  | Ok p -> p
  | Result.Error ({ message; line; col } :: _) -> raise (Error (message, line, col))
  | Result.Error [] -> assert false

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let name = Filename.remove_extension (Filename.basename path) in
  parse ~name src
