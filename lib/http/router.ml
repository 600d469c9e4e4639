type handler = Request.t -> Response.t
type middleware = handler -> handler

type entry = { meth : Meth.t; route : Route.t; handler : handler; order : int }

type t = {
  (* Kept sorted by (specificity desc, registration order asc) at
     registration time, so dispatch is a single scan: the first entry
     whose route and method both match is the winner. *)
  mutable entries : entry list;
  mutable middlewares : middleware list;  (* innermost first *)
  mutable next_order : int;
  mutable on_error : string -> unit;
}

let default_error_logger msg = prerr_endline ("[router] " ^ msg)

let create () =
  { entries = []; middlewares = []; next_order = 0; on_error = default_error_logger }

let on_error t log = t.on_error <- log

let entry_precedes a b =
  match compare (Route.specificity b.route) (Route.specificity a.route) with
  | 0 -> a.order <= b.order
  | c -> c < 0

let add t meth pattern handler =
  let route = Route.parse_exn pattern in
  let duplicate =
    List.exists
      (fun e -> Meth.equal e.meth meth && Route.pattern e.route = pattern)
      t.entries
  in
  if duplicate then
    invalid_arg (Printf.sprintf "duplicate route %s %s" (Meth.to_string meth) pattern);
  let entry = { meth; route; handler; order = t.next_order } in
  t.next_order <- t.next_order + 1;
  let rec insert = function
    | [] -> [ entry ]
    | e :: rest -> if entry_precedes entry e then entry :: e :: rest else e :: insert rest
  in
  t.entries <- insert t.entries

let get t pattern handler = add t Meth.GET pattern handler
let post t pattern handler = add t Meth.POST pattern handler
let delete t pattern handler = add t Meth.DELETE pattern handler

let use t middleware = t.middlewares <- middleware :: t.middlewares

let apply_middleware t handler =
  (* middlewares is newest-first; fold so the newest wraps outermost. *)
  List.fold_right (fun mw acc -> mw acc) (List.rev t.middlewares) handler

let run t entry bindings request =
  let request = Request.with_path_params request bindings in
  let handler = apply_middleware t entry.handler in
  try handler request
  with exn ->
    (* Neither the body nor the log may carry exception text or the raw
       path: both routinely hold row contents, file paths, or policy
       state. The log gets the route pattern and the exception's
       constructor name, which come from fixed vocabularies. *)
    t.on_error
      (Printf.sprintf "%s %s: handler raised %s"
         (Meth.to_string request.Request.meth)
         (Route.pattern entry.route) (Printexc.exn_slot_name exn));
    Response.error Status.Internal_error "internal error"

let dispatch t request =
  let path = request.Request.path in
  (* Single scan over the pre-sorted entries: the first (method, path)
     match has the highest specificity among matching routes, ties
     already broken by registration order. *)
  let rec scan entries ~path_matched =
    match entries with
    | [] ->
        if path_matched then Response.error Status.Method_not_allowed "method not allowed"
        else Response.error Status.Not_found "not found"
    | e :: rest -> (
        match Route.matches e.route path with
        | None -> scan rest ~path_matched
        | Some bindings ->
            if Meth.equal e.meth request.Request.meth then run t e bindings request
            else scan rest ~path_matched:true)
  in
  scan t.entries ~path_matched:false

let routes t =
  List.sort (fun (_, _, a) (_, _, b) -> compare a b)
    (List.map (fun e -> (e.meth, Route.pattern e.route, e.order)) t.entries)
  |> List.map (fun (m, p, _) -> (m, p))
