(** Portfolio: the Czech high-school admissions system (§9).

    Candidates create accounts, input personal information, and upload
    documents for admissions review; stored data is encrypted at rest.
    Two policies cover the most sensitive data:
    + candidate data (plain or ciphertext) is accessible only to the
      candidate and to reviewing school administrators;
    + private keys never leave the database except in cookies to their
      owners.

    Portfolio's crypto library is the reason it has by far the most
    critical regions in the paper (Fig. 6/7): its async crypto crate
    defeats Scrutinizer and cannot be compiled to WebAssembly, so
    encrypt/decrypt/keygen run as reviewed, signed CRs. We reproduce that
    structure with {!Crypto}. *)

module C := Sesame_core
module Db := Sesame_db
module Http := Sesame_http

type t

val app_name : string

val create : ?query_cost_ns:int -> unit -> (t, string) result
val database : t -> Db.Database.t
val conn : t -> C.Sesame_conn.t

val seed : t -> candidates:int -> (unit, string) result
(** [candidates] accounts, each with one encrypted uploaded document. *)

val handle : t -> Http.Request.t -> Http.Response.t
(** [POST /register] makes the account and a keypair in a CR, and sets
    the private key as the owner's cookie (policy 2's one permitted
    exit); [POST /documents] encrypts the body in a CR;
    [GET /documents/<id>] decrypts in a CR, for the candidate or an
    admin; [GET /admin/candidates] lists names for admissions officers. *)

val policy_inventory : (string * int * int) list
