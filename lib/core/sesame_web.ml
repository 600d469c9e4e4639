module Http = Sesame_http

type error =
  | Untrusted_context
  | Policy_denied of { policy : string; context : string }
  | Deadline_exceeded of { sink : string; message : string }
  | Render_error of string

let pp_error fmt = function
  | Untrusted_context ->
      Format.pp_print_string fmt "built-in sinks require a Sesame-created (trusted) context"
  | Policy_denied { policy; context } ->
      Format.fprintf fmt "policy check failed: %s against context [%s]" policy context
  | Deadline_exceeded { sink; message } ->
      Format.fprintf fmt "request budget exhausted at sink %s: %s" sink message
  | Render_error msg -> Format.fprintf fmt "render error: %s" msg

(* Client-facing bodies are generic on purpose: the structured error (and
   whatever the server logs) keeps the detail; the response must not echo
   internal render/DB state to the requester. A spent budget renders as
   the connector renders it. *)
let error_response = function
  | Untrusted_context -> Http.Response.error Http.Status.Forbidden "untrusted context"
  | Policy_denied _ -> Http.Response.error Http.Status.Forbidden "policy check failed"
  | Deadline_exceeded { sink; message } ->
      Sesame_conn.error_response (Sesame_conn.Deadline_exceeded { sink; message })
  | Render_error _ -> Http.Response.error Http.Status.Internal_error "internal error"

let context_for request ?user ?custom () =
  Context.Internal.trusted ~endpoint:request.Http.Request.path ?user ~source:"http"
    ?custom ()

let wrap_param policy = function
  | None -> None
  | Some raw -> Some (Pcon.Internal.make (policy raw) raw)

let query_param request name ~policy =
  wrap_param policy (Http.Request.query_param request name)

let path_param request name ~policy =
  wrap_param policy (Http.Request.path_param request name)

let form_param request name ~policy =
  wrap_param policy (Http.Request.form_param request name)

let cookie request name ~policy = wrap_param policy (Http.Request.cookie request name)

let body request ~policy =
  let raw = request.Http.Request.body in
  Pcon.Internal.make (policy raw) raw

type binding =
  | Public of Http.Template.value
  | Sensitive of string Pcon.t
  | Sensitive_list of (string * string Pcon.t) list list

let ( let* ) = Result.bind

let require_trusted context =
  if Context.is_trusted context then Ok () else Error Untrusted_context

(* Fail closed: a policy check that raises — from its own fallible code or
   from an injected fault at the policy-check seam — is a denial. A check
   that runs out of budget is no verdict: it is the budget refusal. *)
let check ~sink context pcon =
  let context = Context.with_sink context sink in
  match
    Sesame_faults.hit Sesame_faults.Policy_check;
    Enforce.check_verbose (Pcon.policy pcon) context
  with
  | Ok () -> Ok (Pcon.Internal.unwrap pcon)
  | Error msg ->
      Error (Policy_denied { policy = msg; context = Context.describe context })
  | exception Sesame_request.Expired what ->
      Error (Deadline_exceeded { sink; message = Sesame_request.error_message what })
  | exception Sesame_faults.Injected _ ->
      Error
        (Policy_denied
           {
             policy = "policy check aborted by injected fault";
             context = Context.describe context;
           })
  | exception exn ->
      Error
        (Policy_denied
           {
             policy = Printf.sprintf "policy check raised (%s)" (Printexc.to_string exn);
             context = Context.describe context;
           })

(* Within one render, bindings frequently share the very same (immutable)
   policy object — e.g. aggregate cells over one column. Re-checking the
   identical object against the identical context is pure recomputation,
   so cache verdicts by physical identity for the render's duration. *)
let memoized_check ~sink context =
  let seen : (int, (unit, error) result) Hashtbl.t = Hashtbl.create 16 in
  fun pcon ->
    let key = Policy.id (Pcon.policy pcon) in
    let verdict =
      match Hashtbl.find_opt seen key with
      | Some verdict -> verdict
      | None ->
          let verdict = Result.map (fun _ -> ()) (check ~sink context pcon) in
          Hashtbl.add seen key verdict;
          verdict
    in
    Result.map (fun () -> Pcon.Internal.unwrap pcon) verdict

let rec resolve_bindings checked = function
  | [] -> Ok []
  | (name, binding) :: rest -> (
      let* resolved = resolve_bindings checked rest in
      match binding with
      | Public value -> Ok ((name, value) :: resolved)
      | Sensitive pcon ->
          let* raw = checked pcon in
          Ok ((name, Http.Template.Str raw) :: resolved)
      | Sensitive_list rows ->
          let* scopes =
            List.fold_right
              (fun row acc ->
                let* scopes = acc in
                let* fields =
                  List.fold_right
                    (fun (field, pcon) acc ->
                      let* fields = acc in
                      let* raw = checked pcon in
                      Ok ((field, Http.Template.Str raw) :: fields))
                    row (Ok [])
                in
                Ok (fields :: scopes))
              rows (Ok [])
          in
          Ok ((name, Http.Template.List scopes) :: resolved))

let render ~context template bindings =
  let* () = require_trusted context in
  let* resolved = resolve_bindings (memoized_check ~sink:"http::render" context) bindings in
  (* The render itself is a seam too: a template engine crash (or an
     injected fault) must not leak the resolved bindings — it becomes a
     structured render error whose client-facing body is generic. *)
  match
    Sesame_faults.hit Sesame_faults.Template_render;
    Http.Template.render template resolved
  with
  | html -> Ok (Http.Response.html html)
  | exception Sesame_faults.Injected _ ->
      Error (Render_error "render aborted by injected fault")
  | exception exn ->
      Error (Render_error (Printf.sprintf "template engine raised (%s)" (Printexc.to_string exn)))

let respond_text ~context pcon =
  let* () = require_trusted context in
  let* raw = check ~sink:"http::respond" context pcon in
  Ok (Http.Response.text raw)

let set_cookie ~context response ~name ~value =
  let* () = require_trusted context in
  let* raw = check ~sink:"http::cookie" context value in
  Ok (Http.Response.with_cookie response ~name ~value:raw)
