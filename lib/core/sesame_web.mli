(** The Sesame-enabled web framework layer (§4, §8): HTTP sources that
    return PCons, trusted per-request contexts, and template/response
    sinks that policy-check before externalizing.

    This mirrors how the paper's framework wraps Rocket: reading request
    data through these functions attaches the policy the application
    declares (unstructured sources, §4.1: "Applications declare the
    associated policies when they read data"), and rendering goes through
    a policy check per sensitive binding. *)

module Http = Sesame_http

type error =
  | Untrusted_context
  | Policy_denied of { policy : string; context : string }
  | Deadline_exceeded of { sink : string; message : string }
      (** the request's budget ran out during a sink's policy check:
          no verdict, so no denial *)
  | Render_error of string

val pp_error : Format.formatter -> error -> unit
val error_response : error -> Http.Response.t
(** 403 for policy/trust failures, 500 for render errors, and for
    {!Deadline_exceeded} the connector's rendering: 503 with
    [Retry-After] and "request deadline exceeded". Bodies are generic
    ("policy check failed", "internal error"): the detail stays in the
    structured error and must not be echoed to the client. *)

val context_for :
  Http.Request.t -> ?user:string -> ?custom:(string * string) list -> unit -> Context.t
(** The trusted context for a request: endpoint from the request path,
    source ["http"], authenticated [user] supplied by the framework's
    authentication guard. *)

(** {1 Sources} *)

val query_param :
  Http.Request.t -> string -> policy:(string -> Policy.t) -> string Pcon.t option

val path_param :
  Http.Request.t -> string -> policy:(string -> Policy.t) -> string Pcon.t option

val form_param :
  Http.Request.t -> string -> policy:(string -> Policy.t) -> string Pcon.t option

val cookie :
  Http.Request.t -> string -> policy:(string -> Policy.t) -> string Pcon.t option

val body : Http.Request.t -> policy:(string -> Policy.t) -> string Pcon.t

(** {1 Sinks} *)

type binding =
  | Public of Http.Template.value  (** not policy-protected *)
  | Sensitive of string Pcon.t
  | Sensitive_list of (string * string Pcon.t) list list
      (** a template section: one scope per row, each field wrapped *)

val render :
  context:Context.t ->
  Http.Template.t ->
  (string * binding) list ->
  (Http.Response.t, error) result
(** Checks every wrapped binding's policy against the (trusted) context
    with sink ["http::render"], then renders 200 text/html. *)

val respond_text :
  context:Context.t -> string Pcon.t -> (Http.Response.t, error) result
(** Plain-text response sink. *)

val set_cookie :
  context:Context.t ->
  Http.Response.t ->
  name:string ->
  value:string Pcon.t ->
  (Http.Response.t, error) result
(** Cookie sink (sink name ["http::cookie"]): Portfolio releases private
    keys "in cookies to their respective owners" through this. *)
