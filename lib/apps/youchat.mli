(** YouChat: "a simple chat application for individuals and groups" (§9).

    One access-control policy governs everything: "users can only view
    messages that they sent or received, or messages from groups they are
    members of". Fig. 6 reports three verified regions and no sandbox or
    critical regions — all computation on message bodies is verifiable. *)

module C := Sesame_core
module Db := Sesame_db
module Http := Sesame_http

type t

val app_name : string

val create : ?query_cost_ns:int -> unit -> (t, string) result
val database : t -> Db.Database.t
val conn : t -> C.Sesame_conn.t

val seed : t -> users:int -> messages:int -> (unit, string) result
(** [users] accounts; direct messages round-robin between neighbours and a
    "everyone" group containing the first half of the users. *)

val handle : t -> Http.Request.t -> Http.Response.t
(** [POST /send] (form [to] and [body], or [group] and [body]),
    [GET /inbox] (messages the user sent or received) and
    [GET /group/<id>] (the group's messages, for members), each feed in
    sending order. *)

val policy_inventory : (string * int * int) list
