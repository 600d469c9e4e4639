(** Rows: value arrays interpreted through a schema. *)

type t = Value.t array

val get : Schema.t -> t -> string -> Value.t
(** Raises [Invalid_argument] for an unknown column. *)

val get_opt : Schema.t -> t -> string -> Value.t option
val set : Schema.t -> t -> string -> Value.t -> t
(** Functional update: returns a fresh row. *)

val of_assoc : Schema.t -> (string * Value.t) list -> (t, string) result
(** Builds a row from column bindings; unmentioned nullable columns become
    [Null], unmentioned non-nullable columns are an error, as are unknown
    column names and type mismatches. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
