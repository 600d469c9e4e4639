(** Voltron: the collaborative code-editing classroom from Storm, ported
    per §9. "Groups of students collaboratively edit a piece of code with
    instructor oversight."

    Implements all six policies the paper lists: the three from Storm —
    (1) only admins enroll new instructors, (2) students are enrolled only
    by their class's instructor, (3) code buffers are readable and
    writable only by the group's students or the class's instructor (two
    Sesame policies: reads and writes) — plus the two Sesame additions:
    (4) firebase authentication headers may only be used for read
    queries, and (5) endpoints may only use the authenticated user's own
    email. Fig. 6 reports three verified and two critical regions. *)

module C := Sesame_core
module Db := Sesame_db
module Http := Sesame_http

type t

val app_name : string

val create : ?query_cost_ns:int -> unit -> (t, string) result
val database : t -> Db.Database.t
val conn : t -> C.Sesame_conn.t

val sync_buffer_region : t -> (string, unit) C.Region.Critical.t
(** The signed firebase-sync region, whose sink is {!synced}. *)

val synced : t -> string list
(** What the sync region has sent, oldest first. *)

val seed : t -> classes:int -> students_per_class:int -> (unit, string) result
(** One instructor per class; students split into groups of two, one code
    buffer per group. *)

val handle : t -> Http.Request.t -> Http.Response.t
(** [POST /instructors] (admins only, policy 1),
    [POST /classes/<class_id>/students] (the class's instructor only,
    policy 2), and [GET] and [POST /buffers/<id>] (policy 3's read and
    write sides; an edit is merged in a verified region). *)

val policy_inventory : (string * int * int) list
