(** Predicate expressions for WHERE clauses. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of cmp * operand * operand
  | And of t * t
  | Or of t * t
  | Not of t
  | In of operand * Value.t list
  | Like of operand * string
      (** SQL LIKE with [%] wildcards (and [_] for a single character) *)
  | Is_null of operand
and operand = Col of string | Lit of Value.t

val compile : Schema.t -> t -> Row.t -> bool
(** [compile schema e] resolves every column of [e] to its position in
    [schema] once and returns the predicate over rows of that schema.
    Comparisons involving [Null] are false (except via [Is_null]);
    [Like] on a non-text operand is false; IN lists test membership
    through a hash set that agrees with {!Value.equal}.
    An unknown column raises [Invalid_argument] (the message names the
    table and the column) only when an evaluation reaches it, so a
    short-circuiting [And]/[Or] can step over it. *)

val columns : t -> string list
(** Column names referenced, without duplicates. *)

val validate : Schema.t -> t -> (unit, string) result
(** Checks every referenced column exists. *)

val equality_on : t -> string -> Value.t option
(** [equality_on e col] is [Some v] when [e] is a conjunction that pins
    [col = v] — used by the table layer to route lookups through the
    primary-key or a secondary index. *)

val in_list_on : t -> string -> Value.t list option
(** [in_list_on e col] is [Some vs] when [e] is a conjunction with a
    conjunct [col IN vs] — the table layer unions index buckets over
    [vs]. *)

val drop_pin : t -> string -> [ `Equal | `In ] -> t
(** [drop_pin e col pin] is [e] without the conjunct that
    {!equality_on} ([`Equal]) or {!in_list_on} ([`In]) reads for [col]
    — the residual predicate once an exact index probe has decided that
    conjunct. [e] itself when no such conjunct exists. *)

val like_matches : pattern:string -> string -> bool
(** Exposed for direct reuse and property tests. *)

val pp : Format.formatter -> t -> unit
