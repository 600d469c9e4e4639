(** Request routing with middleware, dispatched in-process. *)

type handler = Request.t -> Response.t
type middleware = handler -> handler

type t

val create : unit -> t

val add : t -> Meth.t -> string -> handler -> unit
(** [add t meth pattern handler] registers a route; raises
    [Invalid_argument] on a malformed pattern or an exact duplicate
    (same method and pattern). *)

val get : t -> string -> handler -> unit
val post : t -> string -> handler -> unit
val delete : t -> string -> handler -> unit

val use : t -> middleware -> unit
(** Middleware wraps every handler; the earliest added runs outermost
    (first registered sees the request first). *)

val dispatch : t -> Request.t -> Response.t
(** Picks the most specific matching route (ties broken by registration
    order) in a single scan over entries pre-sorted at registration; 404
    when no pattern matches the path, 405 when patterns match but not
    the method. Handler exceptions become 500s whose body is the fixed
    string ["internal error"]; the {!on_error} logger gets the method,
    the matched route pattern and the exception's constructor name. *)

val on_error : t -> (string -> unit) -> unit
(** Replaces the server-side log sink for handler exceptions (default:
    stderr). The message carries the method, the route pattern (never
    the raw path) and the exception's constructor name (never its
    text). *)

val routes : t -> (Meth.t * string) list
(** Registered routes, for diagnostics. *)
