module C = Sesame_core
module Db = Sesame_db
module Http = Sesame_http
module Scrut = Sesame_scrutinizer
module Sign = Sesame_signing
module Policy = C.Policy
module Pcon = C.Pcon
module Context = C.Context
module Region = C.Region
module Conn = C.Sesame_conn
module Web = C.Sesame_web

let app_name = "voltron"
let admins = [ "dean@university.edu" ]
let is_admin user = List.mem user admins

(* ------------------------------------------------------------------ *)
(* Policies: Storm's three plus Sesame's two extra (§9). Buffer access
   splits into read and write families, as in the paper. *)

(* (1) Only admins can enroll new instructors. *)
module Enroll_instructor_family = struct
  type s = unit

  let name = "voltron::enroll-instructor"

  let check () ctx =
    match Context.user ctx with Some who -> is_admin who | None -> false

  let join = Some (fun () () -> Some ())
  let no_folding = false
  let describe () = "EnrollInstructor(admins only)"
end

module Enroll_instructor = Policy.Make (Enroll_instructor_family)

(* (2) Students can only be enrolled by their class's instructor. *)
module Enroll_student_family = struct
  type s = { instructor : string }

  let name = "voltron::enroll-student"

  let check s ctx = Context.user ctx = Some s.instructor

  let join = None
  let no_folding = false
  let describe s = Printf.sprintf "EnrollStudent(by %s)" s.instructor
end

module Enroll_student = Policy.Make (Enroll_student_family)

(* (3a/3b) Code buffers: read and write restricted to the group's
   students and the class's instructor. *)
module Buffer_family (M : sig
  val direction : string
end) =
struct
  type s = { class_id : int; group_id : int; db : Db.Database.t }

  let name = "voltron::buffer-" ^ M.direction

  let allowed s who =
    let instructor =
      match
        Db.Database.exec s.db "SELECT instructor FROM classes WHERE id = ?"
          ~params:[ Db.Value.Int s.class_id ]
      with
      | Ok (Db.Database.Rows { rows = [ [| Db.Value.Text i |] ]; _ }) -> Some i
      | _ -> None
    in
    instructor = Some who
    ||
    match
      Db.Database.exec s.db
        "SELECT student FROM enrollments WHERE class_id = ? AND group_id = ? AND student = ?"
        ~params:[ Db.Value.Int s.class_id; Db.Value.Int s.group_id; Db.Value.Text who ]
    with
    | Ok (Db.Database.Rows { rows = _ :: _; _ }) -> true
    | _ -> false

  let check s ctx =
    match Context.user ctx with Some who -> allowed s who | None -> false

  let join =
    Some
      (fun a b ->
        if a.class_id = b.class_id && a.group_id = b.group_id then Some a else None)

  let no_folding = false

  let describe s =
    Printf.sprintf "Buffer%s(class=%d, group=%d)" M.direction s.class_id s.group_id
end

module Buffer_read_family = Buffer_family (struct let direction = "read" end)
module Buffer_write_family = Buffer_family (struct let direction = "write" end)
module Buffer_read = Policy.Make (Buffer_read_family)
module Buffer_write = Policy.Make (Buffer_write_family)

(* (4) Firebase auth headers may only flow into read queries. *)
module Firebase_auth_family = struct
  type s = unit

  let name = "voltron::firebase-auth"

  let check () ctx =
    match Context.sink ctx with
    | Some "db::query" -> true (* reads only *)
    | Some _ -> false
    | None -> false

  let join = Some (fun () () -> Some ())
  let no_folding = true
  let describe () = "FirebaseAuth(read queries only)"
end

module Firebase_auth = Policy.Make (Firebase_auth_family)

(* (5) Endpoints may only use the authenticated user's email. *)
module Own_email_family = struct
  type s = { owner : string }

  let name = "voltron::own-email"

  let check s ctx = Context.user ctx = Some s.owner

  let join = None
  let no_folding = false
  let describe s = Printf.sprintf "OwnEmail(%s)" s.owner
end

module Own_email = Policy.Make (Own_email_family)

let policy_inventory =
  [
    ("EnrollInstructor", 11, 3);
    ("EnrollStudent", 10, 1);
    ("BufferRead", 33, 14);
    ("BufferWrite", 33, 14);
    ("FirebaseAuth", 12, 5);
    ("OwnEmail", 9, 1);
  ]

(* ------------------------------------------------------------------ *)

let classes_schema =
  Db.Schema.make_exn ~name:"classes" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "instructor"; ty = Db.Value.Ttext; nullable = false };
    ]

let instructors_schema =
  Db.Schema.make_exn ~name:"instructors" ~primary_key:"email"
    [ { name = "email"; ty = Db.Value.Ttext; nullable = false } ]

let enrollments_schema =
  Db.Schema.make_exn ~name:"enrollments" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "class_id"; ty = Db.Value.Tint; nullable = false };
      { name = "group_id"; ty = Db.Value.Tint; nullable = false };
      { name = "student"; ty = Db.Value.Ttext; nullable = false };
    ]

let buffers_schema =
  Db.Schema.make_exn ~name:"buffers" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "class_id"; ty = Db.Value.Tint; nullable = false };
      { name = "group_id"; ty = Db.Value.Tint; nullable = false };
      { name = "code"; ty = Db.Value.Ttext; nullable = false };
    ]

let build_program () =
  let open Scrut.Ir in
  let program = Scrut.Program.create () in
  Scrut.Program.define_all program
    [
      func ~name:"vt::merge_edit" ~params:[ "code"; "edit" ]
        [ Return (Some (Binop (Concat, Var "code", Var "edit"))) ];
      func ~name:"vt::line_count" ~params:[ "code" ]
        [
          Let ("n", Int_lit 0);
          For ("c", Var "code", [ Assign (Lvar "n", Binop (Add, Var "n", Int_lit 1)) ]);
          Return (Some (Var "n"));
        ];
      func ~name:"vt::render_buffer" ~params:[ "code" ]
        [ Return (Some (Binop (Concat, Str_lit "<code>", Var "code"))) ];
      native ~package:"fcm" ~name:"fcm::notify" ~params:[ "device"; "payload" ] ();
      func ~name:"vt::notify_instructor" ~params:[ "summary"; "device" ]
        [ Expr_stmt (Call (Static "fcm::notify", [ Var "device"; Var "summary" ])) ];
      native ~package:"firebase" ~name:"firebase::sync" ~params:[ "doc" ] ();
      func ~name:"vt::sync_buffer" ~params:[ "code" ]
        [ Expr_stmt (Call (Static "firebase::sync", [ Var "code" ])) ];
    ];
  program

let lockfile =
  Sign.Lockfile.of_packages
    [
      { name = "fcm"; version = "0.9.2"; deps = [ "reqwest" ] };
      { name = "reqwest"; version = "0.12.4"; deps = [] };
      { name = "firebase"; version = "0.3.1"; deps = [ "reqwest" ] };
    ]

type regions = {
  merge_edit : (string * string, string) Region.Verified.t;
  line_count : (string, int) Region.Verified.t;
  render_buffer : (string, string) Region.Verified.t;
  notify_instructor : (string, unit) Region.Critical.t;
  sync_buffer : (string, unit) Region.Critical.t;
}

type t = {
  conn : Conn.t;
  db : Db.Database.t;
  regions : regions;
  mutable next_id : int;
  synced : string list ref;  (** firebase-sync sink, observable in tests *)
  routes : Http.Router.t;
}

let database t = t.db
let conn t = t.conn

let ( let* ) = Result.bind
let reviewer = "lead@university.edu"

let make_regions program keystore synced =
  let open Scrut.Ir in
  let spec ?captures name params body = Scrut.Spec.make ~name ~params ?captures body in
  let lift r = Result.map_error Region.error_to_string r in
  let* merge_edit =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "buffer::merge_edit" [ "code"; "edit" ]
              [ Return (Some (Call (Static "vt::merge_edit", [ Var "code"; Var "edit" ]))) ])
         ~f:(fun (code, edit) -> code ^ "\n" ^ edit)
         ())
  in
  let* line_count =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "buffer::line_count" [ "code" ]
              [ Return (Some (Call (Static "vt::line_count", [ Var "code" ]))) ])
         ~f:(fun code -> List.length (String.split_on_char '\n' code))
         ())
  in
  let* render_buffer =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "buffer::render" [ "code" ]
              [ Return (Some (Call (Static "vt::render_buffer", [ Var "code" ]))) ])
         ~f:(fun code -> "<code>" ^ Http.Template.html_escape code ^ "</code>")
         ())
  in
  let* notify_instructor =
    lift
      (Region.Critical.make ~app:app_name ~program
         ~spec:
           (spec "buffer::notify_instructor" [ "summary" ]
              ~captures:[ { cap_var = "device"; mode = By_value } ]
              [
                Expr_stmt
                  (Call (Static "vt::notify_instructor", [ Var "summary"; Var "device" ]));
              ])
         ~lockfile ~keystore
         ~f:(fun ~context summary ->
           let recipient = Option.value (Context.custom context "device") ~default:"" in
           Email.send ~recipient ~subject:"buffer updated" ~body:summary)
         ())
  in
  let* sync_buffer =
    lift
      (Region.Critical.make ~app:app_name ~program
         ~spec:
           (spec "buffer::sync" [ "code" ]
              [ Expr_stmt (Call (Static "vt::sync_buffer", [ Var "code" ])) ])
         ~lockfile ~keystore
         ~f:(fun ~context:_ code ->
           synced := code :: !synced)
         ())
  in
  Ok { merge_edit; line_count; render_buffer; notify_instructor; sync_buffer }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let student_email c i = Printf.sprintf "student%d_%d@university.edu" c i
let instructor_email c = Printf.sprintf "instructor%d@university.edu" c

let seed t ~classes ~students_per_class =
  let check = function Ok _ -> Ok () | Error msg -> Error msg in
  List.fold_left
    (fun acc c ->
      let* () = acc in
      let* () =
        check
          (Db.Database.exec t.db "INSERT INTO instructors (email) VALUES (?)"
             ~params:[ Db.Value.Text (instructor_email c) ])
      in
      let* () =
        check
          (Db.Database.exec t.db "INSERT INTO classes (id, instructor) VALUES (?, ?)"
             ~params:[ Db.Value.Int (c + 1); Db.Value.Text (instructor_email c) ])
      in
      let* () =
        List.fold_left
          (fun acc i ->
            let* () = acc in
            check
              (Db.Database.exec t.db
                 "INSERT INTO enrollments (id, class_id, group_id, student) VALUES (?, ?, ?, ?)"
                 ~params:
                   [
                     Db.Value.Int (fresh_id t);
                     Db.Value.Int (c + 1);
                     Db.Value.Int ((i / 2) + 1);
                     Db.Value.Text (student_email c i);
                   ]))
          (Ok ())
          (List.init students_per_class Fun.id)
      in
      List.fold_left
        (fun acc g ->
          let* () = acc in
          check
            (Db.Database.exec t.db
               "INSERT INTO buffers (id, class_id, group_id, code) VALUES (?, ?, ?, ?)"
               ~params:
                 [
                   Db.Value.Int (fresh_id t);
                   Db.Value.Int (c + 1);
                   Db.Value.Int (g + 1);
                   Db.Value.Text "fn main() {}";
                 ]))
        (Ok ())
        (List.init (max 1 (students_per_class / 2)) Fun.id))
    (Ok ())
    (List.init classes Fun.id)

(* ------------------------------------------------------------------ *)

let conn_error e = Conn.error_response e

let authenticate request = Http.Request.cookie request "user"

let require_auth request k =
  match authenticate request with
  | Some user -> k user
  | None -> Http.Response.error Http.Status.Unauthorized "not signed in"

(* POST /instructors: enrolling an instructor is a write whose data
   carries the EnrollInstructor policy, so only admins pass the insert
   sink's check (policy 1). *)
let enroll_instructor t request =
  require_auth request (fun user ->
      match Http.Request.form_param request "email" with
      | None -> Http.Response.error Http.Status.Bad_request "email is required"
      | Some email -> (
          let context = Web.context_for request ~user () in
          let wrapped =
            C.Pcon.Internal.make (Enroll_instructor.make ()) (Db.Value.Text email)
          in
          match
            Conn.insert t.conn ~context ~table:"instructors" [ ("email", wrapped) ]
          with
          | Ok () -> Http.Response.text ~status:Http.Status.Created "instructor enrolled"
          | Error e -> conn_error e))

(* POST /classes/<class_id>/students (policy 2). *)
let enroll_student t request =
  require_auth request (fun user ->
      let class_id =
        Http.Request.path_param request "class_id"
        |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:0
      in
      match Http.Request.form_param request "email" with
      | None -> Http.Response.error Http.Status.Bad_request "email is required"
      | Some email -> (
          let instructor =
            match
              Db.Database.exec t.db "SELECT instructor FROM classes WHERE id = ?"
                ~params:[ Db.Value.Int class_id ]
            with
            | Ok (Db.Database.Rows { rows = [ [| Db.Value.Text i |] ]; _ }) -> i
            | _ -> ""
          in
          let context = Web.context_for request ~user () in
          let group_id =
            Http.Request.form_param request "group"
            |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:1
          in
          match
            Conn.insert t.conn ~context ~table:"enrollments"
              [
                ("id", Pcon.wrap_no_policy (Db.Value.Int (fresh_id t)));
                ("class_id", Pcon.wrap_no_policy (Db.Value.Int class_id));
                ("group_id", Pcon.wrap_no_policy (Db.Value.Int group_id));
                ( "student",
                  C.Pcon.Internal.make
                    (Enroll_student.make { instructor })
                    (Db.Value.Text email) );
              ]
          with
          | Ok () -> Http.Response.text ~status:Http.Status.Created "student enrolled"
          | Error e -> conn_error e))

let buffer_template =
  Http.Template.compile_exn "<html><body>{{{buffer}}}</body></html>"

(* GET /buffers/<id> (policy 3, read side). *)
let read_buffer t request =
  require_auth request (fun user ->
      let id =
        Http.Request.path_param request "id"
        |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:0
      in
      let context = Web.context_for request ~user () in
      match
        Conn.query t.conn ~context "SELECT * FROM buffers WHERE id = ?"
          ~params:[ Pcon.wrap_no_policy (Db.Value.Int id) ]
      with
      | Error e -> conn_error e
      | Ok [] -> Http.Response.error Http.Status.Not_found "no such buffer"
      | Ok (row :: _) -> (
          let rendered =
            Region.Verified.run t.regions.render_buffer (C.Pcon_row.text row "code")
          in
          match
            Web.render ~context buffer_template [ ("buffer", Web.Sensitive rendered) ]
          with
          | Ok response -> response
          | Error e -> Web.error_response e))

(* POST /buffers/<id> (policy 3, write side). The new content is merged in
   a verified region; the write-policy check happens at the update sink. *)
let write_buffer t request =
  require_auth request (fun user ->
      let id =
        Http.Request.path_param request "id"
        |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:0
      in
      match Http.Request.form_param request "edit" with
      | None -> Http.Response.error Http.Status.Bad_request "edit is required"
      | Some _ -> (
          let context = Web.context_for request ~user () in
          match
            Conn.query t.conn ~context "SELECT * FROM buffers WHERE id = ?"
              ~params:[ Pcon.wrap_no_policy (Db.Value.Int id) ]
          with
          | Error e -> conn_error e
          | Ok [] -> Http.Response.error Http.Status.Not_found "no such buffer"
          | Ok (row :: _) -> (
              let class_id =
                C.Mock.unwrap (C.Pcon_row.int row "class_id")
                (* class/group ids are structural, NoPolicy columns *)
              in
              let group_id = C.Mock.unwrap (C.Pcon_row.int row "group_id") in
              let write_policy = Buffer_write.make { class_id; group_id; db = t.db } in
              let edit =
                Option.get
                  (Web.form_param request "edit" ~policy:(fun _ -> write_policy))
              in
              let code = C.Pcon_row.text row "code" in
              let merged = Region.Verified.run2 t.regions.merge_edit code edit in
              match
                Conn.execute t.conn ~context "UPDATE buffers SET code = ? WHERE id = ?"
                  ~params:
                    [
                      C.Pcon.Internal.map (fun c -> Db.Value.Text c) merged;
                      Pcon.wrap_no_policy (Db.Value.Int id);
                    ]
              with
              | Error e -> conn_error e
              | Ok _ -> Http.Response.text "buffer updated")))

let add_routes t router =
  Http.Router.post router "/instructors" (enroll_instructor t);
  Http.Router.post router "/classes/<class_id>/students" (enroll_student t);
  Http.Router.get router "/buffers/<id>" (read_buffer t);
  Http.Router.post router "/buffers/<id>" (write_buffer t)

let handle t request = Http.Router.dispatch t.routes request

let create ?(query_cost_ns = 0) () =
  let db = Db.Database.create ~query_cost_ns () in
  let* () = Db.Database.create_table db classes_schema in
  let* () = Db.Database.create_table db instructors_schema in
  let* () = Db.Database.create_table db enrollments_schema in
  let* () = Db.Database.create_table db buffers_schema in
  let conn = Conn.create db in
  Conn.attach_policy conn ~table:"buffers" ~column:"code" (fun schema ->
      let class_id = Db.Schema.column_index_exn schema "class_id"
      and group_id = Db.Schema.column_index_exn schema "group_id" in
      fun row ->
        Buffer_read.make
          {
            class_id = Db.Value.to_int row.(class_id);
            group_id = Db.Value.to_int row.(group_id);
            db;
          });
  let keystore = Sign.Keystore.create () in
  Sign.Keystore.register keystore ~reviewer ~secret:"voltron-reviewer-secret";
  let synced = ref [] in
  let* regions = make_regions (build_program ()) keystore synced in
  let sign region =
    match Region.Critical.sign region ~reviewer ~at:2000 with
    | Ok () -> Ok ()
    | Error e -> Error (Region.error_to_string e)
  in
  let* () = sign regions.notify_instructor in
  let* () = sign regions.sync_buffer in
  (* Built once: dispatch only reads the table, so handler domains share it. *)
  let t = { conn; db; regions; next_id = 1; synced; routes = Http.Router.create () } in
  add_routes t t.routes;
  Ok t
