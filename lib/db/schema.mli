(** Table schemas: ordered, named, typed columns with an optional primary
    key. The Sesame connector ({!Sesame_core.Sesame_db}) attaches policies
    per column of these schemas, mirroring the paper's
    [#[db_policy(table, columns)]] annotations (Fig. 3). *)

type column = {
  name : string;
  ty : Value.ty;
  nullable : bool;
}

type t

val make : name:string -> ?primary_key:string -> column list -> (t, string) result
(** Fails on duplicate column names, an empty column list, or a primary key
    that names no column. The primary-key column must not be nullable. *)

val make_exn : name:string -> ?primary_key:string -> column list -> t

val name : t -> string
val columns : t -> column list
val arity : t -> int
val primary_key : t -> string option

val column_index : t -> string -> int option
val column_index_exn : t -> string -> int

(** [column_name t i] is the name of the column at position [i] (O(1),
    no list rebuild). *)
val column_name : t -> int -> string

(** [column_type t i] is the declared type of the column at position
    [i]. *)
val column_type : t -> int -> Value.ty

val mem : t -> string -> bool

val validate_row : t -> Value.t array -> (unit, string) result
(** Checks arity, per-column types, and nullability. *)

val pp : Format.formatter -> t -> unit
