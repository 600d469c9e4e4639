type aggregate =
  | Count_all
  | Count of string
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

type order = Asc | Desc

type stmt =
  | Select of {
      table : string;
      columns : string list option;
      where : Expr.t;
      order_by : (string * order) option;
      limit : int option;
    }
  | Select_agg of {
      table : string;
      aggregates : aggregate list;
      where : Expr.t;
      group_by : string list;
    }
  | Insert of { table : string; columns : string list option; values : Value.t list }
  | Update of { table : string; set : (string * Value.t) list; where : Expr.t }
  | Delete of { table : string; where : Expr.t }

let aggregate_label = function
  | Count_all -> "COUNT(*)"
  | Count c -> Printf.sprintf "COUNT(%s)" c
  | Sum c -> Printf.sprintf "SUM(%s)" c
  | Avg c -> Printf.sprintf "AVG(%s)" c
  | Min c -> Printf.sprintf "MIN(%s)" c
  | Max c -> Printf.sprintf "MAX(%s)" c

let aggregate_column = function
  | Count_all -> None
  | Count c | Sum c | Avg c | Min c | Max c -> Some c

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Ident of string  (* uppercased for keyword comparison; raw kept *)
  | Raw_ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Question
  | Lparen
  | Rparen
  | Comma
  | Star
  | Op of string  (* = <> != < <= > >= *)
  | Eof

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let rec go i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1)
      else if c = '(' then (push Lparen; go (i + 1))
      else if c = ')' then (push Rparen; go (i + 1))
      else if c = ',' then (push Comma; go (i + 1))
      else if c = '*' then (push Star; go (i + 1))
      else if c = '?' then (push Question; go (i + 1))
      else if c = '\'' then begin
        (* String literal with '' escape. *)
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then fail "unterminated string literal"
          else if src.[j] = '\'' then
            if j + 1 < n && src.[j + 1] = '\'' then (Buffer.add_char buf '\''; str (j + 2))
            else j + 1
          else (Buffer.add_char buf src.[j]; str (j + 1))
        in
        let after = str (i + 1) in
        push (Str_lit (Buffer.contents buf));
        go after
      end
      else if is_digit c || (c = '-' && i + 1 < n && is_digit src.[i + 1]) then begin
        let j = ref i in
        if c = '-' then incr j;
        while !j < n && is_digit src.[!j] do incr j done;
        let is_float = !j < n && src.[!j] = '.' in
        if is_float then begin
          incr j;
          while !j < n && is_digit src.[!j] do incr j done
        end;
        let text = String.sub src i (!j - i) in
        push (if is_float then Float_lit (float_of_string text) else Int_lit (int_of_string text));
        go !j
      end
      else if is_ident_char c then begin
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do incr j done;
        let raw = String.sub src i (!j - i) in
        push (Ident (String.uppercase_ascii raw));
        push (Raw_ident raw);
        go !j
      end
      else if c = '<' && i + 1 < n && src.[i + 1] = '=' then (push (Op "<="); go (i + 2))
      else if c = '<' && i + 1 < n && src.[i + 1] = '>' then (push (Op "<>"); go (i + 2))
      else if c = '>' && i + 1 < n && src.[i + 1] = '=' then (push (Op ">="); go (i + 2))
      else if c = '!' && i + 1 < n && src.[i + 1] = '=' then (push (Op "<>"); go (i + 2))
      else if c = '<' || c = '>' || c = '=' then (push (Op (String.make 1 c)); go (i + 1))
      else fail "unexpected character %C" c
  in
  go 0;
  push Eof;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser: a hand-written recursive-descent parser over the token list.
   Identifiers are emitted as an (Ident KEYWORD, Raw_ident raw) pair so
   that keyword tests are case-insensitive while column/table names keep
   their original spelling. *)

type state = { mutable tokens : token list; mutable params : Value.t list }

let peek st =
  match st.tokens with [] -> Eof | t :: _ -> t

let advance st =
  match st.tokens with
  | [] -> ()
  | _ :: rest -> st.tokens <- rest

(* Keyword lookahead: an identifier token is (Ident upper :: Raw_ident raw). *)
let peek_keyword st =
  match st.tokens with Ident up :: Raw_ident _ :: _ -> Some up | _ -> None

let eat_keyword st kw =
  match st.tokens with
  | Ident up :: Raw_ident _ :: rest when up = kw -> (st.tokens <- rest; true)
  | _ -> false

let expect_keyword st kw =
  if not (eat_keyword st kw) then fail "expected %s" kw

let expect_ident st =
  match st.tokens with
  | Ident _ :: Raw_ident raw :: rest ->
      st.tokens <- rest;
      raw
  | t :: _ ->
      fail "expected identifier, got %s"
        (match t with
        | Int_lit i -> string_of_int i
        | Str_lit s -> Printf.sprintf "%S" s
        | Eof -> "end of input"
        | _ -> "symbol")
  | [] -> fail "expected identifier at end of input"

let expect st t what =
  if peek st = t then advance st else fail "expected %s" what

let next_param st =
  match st.params with
  | [] -> fail "not enough parameters for the ? placeholders"
  | v :: rest ->
      st.params <- rest;
      v

let parse_value st : Value.t =
  match st.tokens with
  | Int_lit i :: rest -> (st.tokens <- rest; Value.Int i)
  | Float_lit f :: rest -> (st.tokens <- rest; Value.Float f)
  | Str_lit s :: rest -> (st.tokens <- rest; Value.Text s)
  | Question :: rest -> (st.tokens <- rest; next_param st)
  | Ident "NULL" :: Raw_ident _ :: rest -> (st.tokens <- rest; Value.Null)
  | Ident "TRUE" :: Raw_ident _ :: rest -> (st.tokens <- rest; Value.Bool true)
  | Ident "FALSE" :: Raw_ident _ :: rest -> (st.tokens <- rest; Value.Bool false)
  | _ -> fail "expected a value"

let is_value_start st =
  match st.tokens with
  | Int_lit _ :: _ | Float_lit _ :: _ | Str_lit _ :: _ | Question :: _ -> true
  | Ident ("NULL" | "TRUE" | "FALSE") :: _ -> true
  | _ -> false

let parse_operand st : Expr.operand =
  if is_value_start st then Expr.Lit (parse_value st)
  else Expr.Col (expect_ident st)

(* Predicate grammar:
     pred   := conj (OR conj)*
     conj   := unit (AND unit)*
     unit   := NOT unit | '(' pred ')' | atom
     atom   := operand (cmp operand | IN (...) | LIKE str | IS [NOT] NULL) *)
let rec parse_pred st =
  let left = parse_conj st in
  if eat_keyword st "OR" then Expr.Or (left, parse_pred st) else left

and parse_conj st =
  let left = parse_unit st in
  if eat_keyword st "AND" then Expr.And (left, parse_conj st) else left

and parse_unit st =
  if eat_keyword st "NOT" then Expr.Not (parse_unit st)
  else if peek st = Lparen then begin
    advance st;
    let inner = parse_pred st in
    expect st Rparen ")";
    inner
  end
  else parse_atom st

and parse_atom st =
  let left = parse_operand st in
  match st.tokens with
  | Op op :: rest ->
      st.tokens <- rest;
      let right = parse_operand st in
      let cmp =
        match op with
        | "=" -> Expr.Eq
        | "<>" -> Expr.Ne
        | "<" -> Expr.Lt
        | "<=" -> Expr.Le
        | ">" -> Expr.Gt
        | ">=" -> Expr.Ge
        | _ -> fail "unknown operator %s" op
      in
      Expr.Cmp (cmp, left, right)
  | Ident "IN" :: Raw_ident _ :: rest ->
      st.tokens <- rest;
      expect st Lparen "(";
      let values = ref [ parse_value st ] in
      while peek st = Comma do
        advance st;
        values := parse_value st :: !values
      done;
      expect st Rparen ")";
      Expr.In (left, List.rev !values)
  | Ident "LIKE" :: Raw_ident _ :: rest -> (
      st.tokens <- rest;
      match parse_value st with
      | Value.Text pattern -> Expr.Like (left, pattern)
      | _ -> fail "LIKE expects a string pattern")
  | Ident "IS" :: Raw_ident _ :: rest ->
      st.tokens <- rest;
      let negated = eat_keyword st "NOT" in
      expect_keyword st "NULL";
      if negated then Expr.Not (Expr.Is_null left) else Expr.Is_null left
  | _ -> fail "expected a comparison"

let parse_where st =
  if eat_keyword st "WHERE" then parse_pred st else Expr.True

let parse_column_list st =
  let cols = ref [ expect_ident st ] in
  while peek st = Comma do
    advance st;
    cols := expect_ident st :: !cols
  done;
  List.rev !cols

let aggregate_keywords = [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let parse_aggregate st =
  match peek_keyword st with
  | Some kw when List.mem kw aggregate_keywords ->
      advance st;
      advance st;
      (* consumed Ident + Raw_ident *)
      expect st Lparen "(";
      let agg =
        if kw = "COUNT" && peek st = Star then begin
          advance st;
          Count_all
        end
        else
          let col = expect_ident st in
          match kw with
          | "COUNT" -> Count col
          | "SUM" -> Sum col
          | "AVG" -> Avg col
          | "MIN" -> Min col
          | "MAX" -> Max col
          | _ -> assert false
      in
      expect st Rparen ")";
      agg
  | _ -> fail "expected an aggregate function"

let starts_aggregate st =
  match peek_keyword st with
  | Some kw -> List.mem kw aggregate_keywords
  | None -> false

let parse_select st =
  if peek st = Star then begin
    advance st;
    expect_keyword st "FROM";
    let table = expect_ident st in
    let where = parse_where st in
    let order_by =
      if eat_keyword st "ORDER" then begin
        expect_keyword st "BY";
        let col = expect_ident st in
        let dir = if eat_keyword st "DESC" then Desc else (ignore (eat_keyword st "ASC"); Asc) in
        Some (col, dir)
      end
      else None
    in
    let limit =
      if eat_keyword st "LIMIT" then
        match st.tokens with
        | Int_lit n :: rest -> (st.tokens <- rest; Some n)
        | _ -> fail "LIMIT expects an integer"
      else None
    in
    Select { table; columns = None; where; order_by; limit }
  end
  else if starts_aggregate st then begin
    let aggs = ref [ parse_aggregate st ] in
    while peek st = Comma do
      advance st;
      aggs := parse_aggregate st :: !aggs
    done;
    expect_keyword st "FROM";
    let table = expect_ident st in
    let where = parse_where st in
    let group_by =
      if eat_keyword st "GROUP" then begin
        expect_keyword st "BY";
        parse_column_list st
      end
      else []
    in
    Select_agg { table; aggregates = List.rev !aggs; where; group_by }
  end
  else begin
    let columns = parse_column_list st in
    expect_keyword st "FROM";
    let table = expect_ident st in
    let where = parse_where st in
    let order_by =
      if eat_keyword st "ORDER" then begin
        expect_keyword st "BY";
        let col = expect_ident st in
        let dir = if eat_keyword st "DESC" then Desc else (ignore (eat_keyword st "ASC"); Asc) in
        Some (col, dir)
      end
      else None
    in
    let limit =
      if eat_keyword st "LIMIT" then
        match st.tokens with
        | Int_lit n :: rest -> (st.tokens <- rest; Some n)
        | _ -> fail "LIMIT expects an integer"
      else None
    in
    Select { table; columns = Some columns; where; order_by; limit }
  end

let parse_insert st =
  expect_keyword st "INTO";
  let table = expect_ident st in
  let columns =
    if peek st = Lparen then begin
      advance st;
      let cols = parse_column_list st in
      expect st Rparen ")";
      Some cols
    end
    else None
  in
  expect_keyword st "VALUES";
  expect st Lparen "(";
  let values = ref [ parse_value st ] in
  while peek st = Comma do
    advance st;
    values := parse_value st :: !values
  done;
  expect st Rparen ")";
  Insert { table; columns; values = List.rev !values }

let parse_update st =
  let table = expect_ident st in
  expect_keyword st "SET";
  let parse_assignment () =
    let col = expect_ident st in
    (match peek st with
    | Op "=" -> advance st
    | _ -> fail "expected = in SET clause");
    (col, parse_value st)
  in
  let set = ref [ parse_assignment () ] in
  while peek st = Comma do
    advance st;
    set := parse_assignment () :: !set
  done;
  let where = parse_where st in
  Update { table; set = List.rev !set; where }

let parse_delete st =
  expect_keyword st "FROM";
  let table = expect_ident st in
  let where = parse_where st in
  Delete { table; where }

let parse src ~params =
  match
    let st = { tokens = tokenize src; params } in
    let stmt =
      if eat_keyword st "SELECT" then parse_select st
      else if eat_keyword st "INSERT" then parse_insert st
      else if eat_keyword st "UPDATE" then parse_update st
      else if eat_keyword st "DELETE" then parse_delete st
      else fail "expected SELECT, INSERT, UPDATE or DELETE"
    in
    if peek st <> Eof then fail "trailing tokens after statement";
    if st.params <> [] then
      fail "%d unused parameters" (List.length st.params);
    stmt
  with
  | stmt -> Ok stmt
  | exception Parse_error msg -> Error (Printf.sprintf "SQL error in %S: %s" src msg)
