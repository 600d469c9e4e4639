(** Rows: value arrays interpreted through a schema. *)

type t = Value.t array

val get : Schema.t -> t -> string -> Value.t
(** Raises [Invalid_argument] for an unknown column. *)

val get_opt : Schema.t -> t -> string -> Value.t option
val set : Schema.t -> t -> string -> Value.t -> t
(** Functional update: returns a fresh row. *)

val of_assoc : Schema.t -> (string * Value.t) list -> (t, string) result
(** Builds a row from column bindings; unmentioned columns become
    [Null] and unknown column names are an error. Types and
    nullability are checked where the row is stored ({!Table.insert},
    which may assign a [Null] key). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
