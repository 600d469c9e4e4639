(** Shared WebSubmit schema and workload, used by both the Sesame port and
    the baseline so Fig. 8 compares identical work. *)

module Db := Sesame_db

val users : Db.Schema.t
val answers : Db.Schema.t
val leaders : Db.Schema.t

val hash_salt : string
val hash_iterations : int

val pseudo_grade : string -> int -> float
(** Deterministic per (student, question), in [40, 100]. *)

val student_email : int -> string

val seed :
  Db.Database.t ->
  students:int ->
  questions:int ->
  (unit, string) result
(** The Fig. 8 course load: [students] users (every third consenting), one
    graded answer per (student, question) in lecture 1, and two discussion
    leaders for lecture 1. Answer ids are the store's: 1, 2, ... in
    insertion order on an empty table. *)
