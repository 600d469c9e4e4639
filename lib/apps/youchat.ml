module C = Sesame_core
module Db = Sesame_db
module Http = Sesame_http
module Scrut = Sesame_scrutinizer
module Policy = C.Policy
module Pcon = C.Pcon
module Context = C.Context
module Region = C.Region
module Conn = C.Sesame_conn
module Web = C.Sesame_web

let app_name = "youchat"

(* The single YouChat policy: a message is visible to its sender, its
   recipient, and (for group messages) the group's members. Membership
   lives in the database. *)
module Message_access_family = struct
  type s = {
    sender : string;
    recipient : string option;
    group_id : int option;
    db : Db.Database.t;
  }

  let name = "youchat::message-access"

  let group_members db group_id =
    match
      Db.Database.exec db "SELECT email FROM group_members WHERE group_id = ?"
        ~params:[ Db.Value.Int group_id ]
    with
    | Ok (Db.Database.Rows { rows; _ }) ->
        List.filter_map
          (fun row -> match row.(0) with Db.Value.Text e -> Some e | _ -> None)
          rows
    | Ok (Db.Database.Affected _) | Error _ -> []

  let check s ctx =
    match Context.user ctx with
    | None -> false
    | Some who ->
        who = s.sender
        || s.recipient = Some who
        || (match s.group_id with
           | Some gid -> List.mem who (group_members s.db gid)
           | None -> false)

  let join = None
  let no_folding = false

  let describe s =
    Printf.sprintf "MessageAccess(from=%s, to=%s, group=%s)" s.sender
      (Option.value s.recipient ~default:"-")
      (match s.group_id with Some g -> string_of_int g | None -> "-")
end

module Message_access = Policy.Make (Message_access_family)

let policy_inventory = [ ("MessageAccess", 38, 12) ]

(* ------------------------------------------------------------------ *)

let users_schema =
  Db.Schema.make_exn ~name:"users" ~primary_key:"email"
    [ { name = "email"; ty = Db.Value.Ttext; nullable = false } ]

let groups_schema =
  Db.Schema.make_exn ~name:"groups" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "name"; ty = Db.Value.Ttext; nullable = false };
    ]

let members_schema =
  Db.Schema.make_exn ~name:"group_members" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "group_id"; ty = Db.Value.Tint; nullable = false };
      { name = "email"; ty = Db.Value.Ttext; nullable = false };
    ]

let messages_schema =
  Db.Schema.make_exn ~name:"messages" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "sender"; ty = Db.Value.Ttext; nullable = false };
      { name = "recipient"; ty = Db.Value.Ttext; nullable = true };
      { name = "group_id"; ty = Db.Value.Tint; nullable = true };
      { name = "body"; ty = Db.Value.Ttext; nullable = false };
    ]

(* YouChat's three verified regions (Fig. 6). *)
let build_program () =
  let open Scrut.Ir in
  let program = Scrut.Program.create () in
  Scrut.Program.define_all program
    [
      func ~name:"yc::preview" ~params:[ "body" ]
        [
          Let ("short", Call (Static "String::clone", [ Var "body" ]));
          Return (Some (Var "short"));
        ];
      func ~name:"yc::join_thread" ~params:[ "bodies" ]
        [
          Let ("out", Str_lit "");
          For
            ( "b",
              Var "bodies",
              [ Assign (Lvar "out", Binop (Concat, Var "out", Var "b")) ] );
          Return (Some (Var "out"));
        ];
      func ~name:"yc::shout" ~params:[ "body" ]
        [ Return (Some (Binop (Concat, Var "body", Str_lit "!"))) ];
    ];
  program

type regions = {
  preview : (string, string) Region.Verified.t;
  join_thread : (string list, string) Region.Verified.t;
  shout : (string, string) Region.Verified.t;
}

type t = {
  conn : Conn.t;
  db : Db.Database.t;
  regions : regions;
  routes : Http.Router.t;
}

let database t = t.db
let conn t = t.conn

let ( let* ) = Result.bind

let make_regions program =
  let open Scrut.Ir in
  let spec name params body = Scrut.Spec.make ~name ~params body in
  let lift r = Result.map_error Region.error_to_string r in
  let* preview =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "inbox::preview" [ "body" ]
              [ Return (Some (Call (Static "yc::preview", [ Var "body" ]))) ])
         ~f:(fun body -> if String.length body <= 40 then body else String.sub body 0 40)
         ())
  in
  let* join_thread =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "thread::join" [ "bodies" ]
              [ Return (Some (Call (Static "yc::join_thread", [ Var "bodies" ]))) ])
         ~f:(fun bodies -> String.concat "\n" bodies)
         ())
  in
  let* shout =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "send::shout" [ "body" ]
              [ Return (Some (Call (Static "yc::shout", [ Var "body" ]))) ])
         ~f:String.uppercase_ascii
         ())
  in
  Ok { preview; join_thread; shout }

let user_email i = Printf.sprintf "user%d@chat.io" i

let seed t ~users ~messages =
  let check = function Ok _ -> Ok () | Error msg -> Error msg in
  let* () =
    List.fold_left
      (fun acc i ->
        let* () = acc in
        check
          (Db.Database.exec t.db "INSERT INTO users (email) VALUES (?)"
             ~params:[ Db.Value.Text (user_email i) ]))
      (Ok ())
      (List.init users Fun.id)
  in
  let* () =
    check
      (Db.Database.exec t.db "INSERT INTO groups (id, name) VALUES (?, ?)"
         ~params:[ Db.Value.Int 1; Db.Value.Text "everyone" ])
  in
  let* () =
    List.fold_left
      (fun acc i ->
        let* () = acc in
        check
          (Db.Database.exec t.db
             "INSERT INTO group_members (group_id, email) VALUES (?, ?)"
             ~params:[ Db.Value.Int 1; Db.Value.Text (user_email i) ]))
      (Ok ())
      (List.init (max 1 (users / 2)) Fun.id)
  in
  List.fold_left
    (fun acc m ->
      let* () = acc in
      let sender = user_email (m mod users) in
      let to_group = m mod 4 = 0 in
      check
        (Db.Database.exec t.db
           "INSERT INTO messages (sender, recipient, group_id, body) VALUES (?, ?, ?, ?)"
           ~params:
             [
               Db.Value.Text sender;
               (if to_group then Db.Value.Null
                else Db.Value.Text (user_email ((m + 1) mod users)));
               (if to_group then Db.Value.Int 1 else Db.Value.Null);
               Db.Value.Text (Printf.sprintf "message %d from %s" m sender);
             ]))
    (Ok ())
    (List.init messages Fun.id)

(* ------------------------------------------------------------------ *)

let conn_error e = Conn.error_response e

let authenticate request = Http.Request.cookie request "user"

let require_auth request k =
  match authenticate request with
  | Some user -> k user
  | None -> Http.Response.error Http.Status.Unauthorized "not signed in"

let send_message t request =
  require_auth request (fun user ->
      match Http.Request.form_param request "body" with
      | None -> Http.Response.error Http.Status.Bad_request "body is required"
      | Some _ -> (
          let recipient = Http.Request.form_param request "to" in
          let group = Http.Request.form_param request "group" in
          let policy =
            Message_access.make
              {
                sender = user;
                recipient;
                group_id = Option.bind group int_of_string_opt;
                db = t.db;
              }
          in
          let body_pcon =
            Option.get (Web.form_param request "body" ~policy:(fun _ -> policy))
          in
          (* Emphasis is app logic on protected data: a verified region. *)
          let body_pcon =
            if Http.Request.form_param request "shout" = Some "true" then
              Region.Verified.run t.regions.shout body_pcon
            else body_pcon
          in
          let context = Web.context_for request ~user () in
          match
            Conn.insert t.conn ~context ~table:"messages"
              [
                ("sender", Pcon.wrap_no_policy (Db.Value.Text user));
                ( "recipient",
                  Pcon.wrap_no_policy
                    (match recipient with
                    | Some r -> Db.Value.Text r
                    | None -> Db.Value.Null) );
                ( "group_id",
                  Pcon.wrap_no_policy
                    (match Option.bind group int_of_string_opt with
                    | Some g -> Db.Value.Int g
                    | None -> Db.Value.Null) );
                ("body", C.Pcon.Internal.map (fun b -> Db.Value.Text b) body_pcon);
              ]
          with
          | Ok () -> Http.Response.text ~status:Http.Status.Created "sent"
          | Error e -> conn_error e))

let feed_template =
  Http.Template.compile_exn
    "<html><body>{{#messages}}<div>{{line}}</div>{{/messages}}</body></html>"

let render_messages t context rows =
  let bindings =
    List.map
      (fun row ->
        [ ("line", Region.Verified.run t.regions.preview (C.Pcon_row.text row "body")) ])
      rows
  in
  match
    Web.render ~context feed_template [ ("messages", Web.Sensitive_list bindings) ]
  with
  | Ok response -> response
  | Error e -> Web.error_response e

let inbox t request =
  require_auth request (fun user ->
      let context = Web.context_for request ~user () in
      match
        Conn.query t.conn ~context
          "SELECT * FROM messages WHERE sender = ? OR recipient = ? ORDER BY id"
          ~params:
            [
              Pcon.wrap_no_policy (Db.Value.Text user);
              Pcon.wrap_no_policy (Db.Value.Text user);
            ]
      with
      | Error e -> conn_error e
      | Ok rows -> render_messages t context rows)

let group_feed t request =
  require_auth request (fun user ->
      let gid =
        Http.Request.path_param request "id"
        |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:1
      in
      let context = Web.context_for request ~user () in
      match
        Conn.query t.conn ~context
          "SELECT * FROM messages WHERE group_id = ? ORDER BY id"
          ~params:[ Pcon.wrap_no_policy (Db.Value.Int gid) ]
      with
      | Error e -> conn_error e
      | Ok rows -> render_messages t context rows)

let add_routes t router =
  Http.Router.post router "/send" (send_message t);
  Http.Router.get router "/inbox" (inbox t);
  Http.Router.get router "/group/<id>" (group_feed t)

let handle t request = Http.Router.dispatch t.routes request

let create ?(query_cost_ns = 0) () =
  let db = Db.Database.create ~query_cost_ns () in
  let* () = Db.Database.create_table db users_schema in
  let* () = Db.Database.create_table db groups_schema in
  let* () = Db.Database.create_table db members_schema in
  let* () = Db.Database.create_table db messages_schema in
  let conn = Conn.create db in
  Conn.attach_policy conn ~table:"messages" ~column:"body" (fun schema ->
      let sender = Db.Schema.column_index_exn schema "sender"
      and recipient = Db.Schema.column_index_exn schema "recipient"
      and group_id = Db.Schema.column_index_exn schema "group_id" in
      fun row ->
        Message_access.make
          {
            sender = Db.Value.to_text row.(sender);
            recipient =
              (match row.(recipient) with Db.Value.Text r -> Some r | _ -> None);
            group_id = (match row.(group_id) with Db.Value.Int g -> Some g | _ -> None);
            db;
          });
  let* regions = make_regions (build_program ()) in
  (* Built once: dispatch only reads the table, so handler domains share it. *)
  let t = { conn; db; regions; routes = Http.Router.create () } in
  add_routes t t.routes;
  Ok t
