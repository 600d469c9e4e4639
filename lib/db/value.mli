(** Typed SQL values for the in-memory relational engine (the MySQL
    substrate of §8). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

type ty = Tint | Tfloat | Ttext | Tbool

val type_of : t -> ty option
(** [None] for [Null], which inhabits every column type. *)

val has_type : t -> ty -> bool
(** [Null] has every type. *)

val equal : t -> t -> bool
(** SQL-style equality except that [Null = Null] (the engine is used for
    exact-match lookups, not three-valued logic). [Int] and [Float] compare
    numerically. *)

val hash : t -> int
(** Agrees with {!equal}: equal values hash alike, so [Int 1] and
    [Float 1.0] do, as do [-0.0] and [0.0]. *)

val compare : t -> t -> int
(** Total order: Null < Bool < numbers < Text; numbers compare numerically
    across Int/Float. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val ty_to_string : ty -> string
val pp_ty : Format.formatter -> ty -> unit

(** Conversions used at application boundaries; raise [Invalid_argument]
    on a type mismatch so that schema errors fail loudly in tests. *)

val to_int : t -> int
val to_float : t -> float
(** [to_float] also accepts [Int]. *)

val to_text : t -> string
val to_bool : t -> bool

val is_null : t -> bool
