(** A small SQL front-end, mirroring the string-based query API of the
    paper's MySQL connector (e.g. Fig. 2's
    ["SELECT * FROM answers where id = ? AND author = ?"]).

    Supported statements:
    - [SELECT * | col, ... FROM t [WHERE pred] [ORDER BY col [ASC|DESC]] [LIMIT n]]
    - [SELECT agg(...) [, agg(...)...] FROM t [WHERE pred] [GROUP BY col, ...]]
      with aggregates [COUNT( * )], [COUNT(col)], [SUM], [AVG], [MIN], [MAX]
    - [INSERT INTO t [(col, ...)] VALUES (v, ...)]
    - [UPDATE t SET col = v, ... [WHERE pred]]
    - [DELETE FROM t [WHERE pred]]

    Predicates support [=], [<>], [!=], [<], [<=], [>], [>=], [AND], [OR],
    [NOT], [IN (...)], [LIKE], [IS [NOT] NULL], parentheses, and [?]
    positional parameters. Keywords are case-insensitive; string literals
    use single quotes with [''] escaping. *)

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
      columns : string list option;  (** [None] = [*] *)
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

val parse : string -> params:Value.t list -> (stmt, string) result
(** Parses and binds the [?] placeholders in one pass; fails if the
    parameter count does not match the number of placeholders. *)

val aggregate_label : aggregate -> string
(** e.g. ["COUNT(*)"], ["AVG(grade)"] — used as result column names. *)

val aggregate_column : aggregate -> string option
(** The column an aggregate reads; [None] for [COUNT( * )]. *)
