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

let app_name = "portfolio"
let admins = [ "officer@school.cz" ]
let is_admin user = List.mem user admins

(* (1) Candidate data — plain or ciphertext — is accessible only to the
   candidate and reviewing administrators. *)
module Candidate_data_family = struct
  type s = { candidate : string }

  let name = "portfolio::candidate-data"

  let check s ctx =
    match Context.user ctx with
    | None -> false
    | Some who -> who = s.candidate || is_admin who

  let join = None
  let no_folding = false
  let describe s = Printf.sprintf "CandidateData(%s)" s.candidate
end

module Candidate_data = Policy.Make (Candidate_data_family)

(* (2) Private keys never leave the DB except in the owner's cookie. *)
module Private_key_family = struct
  type s = { owner : string }

  let name = "portfolio::private-key"

  let check s ctx =
    match Context.sink ctx with
    | Some "db::insert" | Some "db::query" | Some "db::execute" -> true
    | Some "http::cookie" -> Context.user ctx = Some s.owner
    | None ->
        (* A critical region in the owner's own session (encrypt/decrypt)
           may compute with the key; it still cannot externalize it. *)
        Context.user ctx = Some s.owner
    | Some _ -> false

  let join = None
  let no_folding = true
  let describe s = Printf.sprintf "PrivateKey(%s)" s.owner
end

module Private_key = Policy.Make (Private_key_family)

let policy_inventory = [ ("CandidateData", 16, 5); ("PrivateKey", 17, 6) ]

(* ------------------------------------------------------------------ *)

let candidates_schema =
  Db.Schema.make_exn ~name:"candidates" ~primary_key:"email"
    [
      { name = "email"; ty = Db.Value.Ttext; nullable = false };
      { name = "name"; ty = Db.Value.Ttext; nullable = false };
      { name = "school"; ty = Db.Value.Ttext; nullable = true };
      { name = "private_key"; ty = Db.Value.Ttext; nullable = false };
    ]

let documents_schema =
  Db.Schema.make_exn ~name:"documents" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "email"; ty = Db.Value.Ttext; nullable = false };
      { name = "filename"; ty = Db.Value.Ttext; nullable = false };
      { name = "ciphertext"; ty = Db.Value.Ttext; nullable = false };
      { name = "checksum"; ty = Db.Value.Tint; nullable = true };
    ]

(* The IR program: the crypto crate is async + native, so every region
   touching it is rejected by Scrutinizer, and (being incompatible with
   the WASM sandbox) becomes a critical region — the §9 porting story. *)
let build_program () =
  let open Scrut.Ir in
  let program = Scrut.Program.create () in
  Scrut.Program.define_all program
    [
      func ~name:"pf::validate_name" ~params:[ "name" ]
        [
          If
            ( Binop (Eq, Var "name", Str_lit ""),
              [ Return (Some (Str_lit "name must not be empty")) ],
              [ Return (Some (Str_lit "")) ] );
        ];
      func ~name:"pf::format_profile" ~params:[ "name"; "school" ]
        [
          Return
            (Some (Binop (Concat, Var "name", Binop (Concat, Str_lit " / ", Var "school"))));
        ];
      func ~name:"pf::checksum" ~params:[ "data" ]
        [
          Let ("sum", Int_lit 0);
          For ("b", Var "data", [ Assign (Lvar "sum", Binop (Add, Var "sum", Var "b")) ]);
          Return (Some (Var "sum"));
        ];
      native ~package:"ring" ~name:"ring::stream_encrypt" ~params:[ "key"; "data" ] ();
      native ~package:"ring" ~name:"ring::stream_decrypt" ~params:[ "key"; "data" ] ();
      native ~package:"ring" ~name:"ring::keypair" ~params:[ "seed" ] ();
      func ~name:"pf::encrypt_document" ~params:[ "data"; "key" ]
        [ Return (Some (Call (Static "ring::stream_encrypt", [ Var "key"; Var "data" ]))) ];
      func ~name:"pf::decrypt_document" ~params:[ "data"; "key" ]
        [ Return (Some (Call (Static "ring::stream_decrypt", [ Var "key"; Var "data" ]))) ];
      func ~name:"pf::generate_keypair" ~params:[ "seed" ]
        [ Return (Some (Call (Static "ring::keypair", [ Var "seed" ]))) ];
    ];
  program

let lockfile =
  Sign.Lockfile.of_packages
    [
      { name = "ring"; version = "0.17.8"; deps = [ "untrusted" ] };
      { name = "untrusted"; version = "0.9.0"; deps = [] };
    ]

type regions = {
  validate_name : (string, string) Region.Verified.t;
  format_profile : (string * string, string) Region.Verified.t;
  checksum : (string, int) Region.Sandboxed.t;
  encrypt_document : (string * string, string) Region.Critical.t;
  decrypt_document : (string * string, (string, string) result) Region.Critical.t;
  generate_keypair : (string, string * string) Region.Critical.t;
}

type t = {
  conn : Conn.t;
  db : Db.Database.t;
  regions : regions;
  mutable next_id : int;
  routes : Http.Router.t;
}

let database t = t.db
let conn t = t.conn

let ( let* ) = Result.bind
let reviewer = "dpo@school.cz"

let make_regions program keystore =
  let open Scrut.Ir in
  let spec ?captures name params body = Scrut.Spec.make ~name ~params ?captures body in
  let lift r = Result.map_error Region.error_to_string r in
  let* validate_name =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "register::validate_name" [ "name" ]
              [ Return (Some (Call (Static "pf::validate_name", [ Var "name" ]))) ])
         ~f:(fun name -> if String.trim name = "" then "name must not be empty" else "")
         ())
  in
  let* format_profile =
    lift
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "profile::format" [ "name"; "school" ]
              [
                Return
                  (Some (Call (Static "pf::format_profile", [ Var "name"; Var "school" ])));
              ])
         ~f:(fun (name, school) -> name ^ " / " ^ school)
         ())
  in
  let checksum =
    Region.Sandboxed.make ~app:app_name ~name:"upload::checksum" ~loc:6
      ~encode:(fun data -> Sesame_sandbox.Value.Str data)
      ~decode:(function
        | Sesame_sandbox.Value.Int sum -> Ok sum
        | _ -> Error "expected Int")
      ~f:(function
        | Sesame_sandbox.Value.Str data ->
            let sum = ref 0 in
            String.iter (fun c -> sum := (!sum + Char.code c) land 0xFFFFFF) data;
            Sesame_sandbox.Value.Int !sum
        | other -> other)
      ()
  in
  let* encrypt_document =
    lift
      (Region.Critical.make ~app:app_name ~program
         ~spec:
           (spec "document::encrypt" [ "data"; "key" ]
              [
                Return
                  (Some (Call (Static "pf::encrypt_document", [ Var "data"; Var "key" ])));
              ])
         ~lockfile ~keystore
         ~f:(fun ~context:_ (data, key) -> Crypto.encrypt ~key data)
         ())
  in
  let* decrypt_document =
    lift
      (Region.Critical.make ~app:app_name ~program
         ~spec:
           (spec "document::decrypt" [ "data"; "key" ]
              [
                Return
                  (Some (Call (Static "pf::decrypt_document", [ Var "data"; Var "key" ])));
              ])
         ~lockfile ~keystore
         ~f:(fun ~context:_ (data, key) -> Crypto.decrypt ~key data)
         ())
  in
  let* generate_keypair =
    lift
      (Region.Critical.make ~app:app_name ~program
         ~spec:
           (spec "register::keypair" [ "seed" ]
              [ Return (Some (Call (Static "pf::generate_keypair", [ Var "seed" ]))) ])
         ~lockfile ~keystore
         ~f:(fun ~context:_ seed -> Crypto.keypair ~seed)
         ())
  in
  Ok
    {
      validate_name;
      format_profile;
      checksum;
      encrypt_document;
      decrypt_document;
      generate_keypair;
    }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let candidate_email i = Printf.sprintf "candidate%d@school.cz" i

let insert_candidate t ~email ~name ~school =
  let _, priv = Crypto.keypair ~seed:email in
  let ( let* ) = Result.bind in
  let* _ =
    Db.Database.exec t.db
      "INSERT INTO candidates (email, name, school, private_key) VALUES (?, ?, ?, ?)"
      ~params:
        [
          Db.Value.Text email;
          Db.Value.Text name;
          Db.Value.Text school;
          Db.Value.Text priv;
        ]
  in
  Ok priv

let seed t ~candidates =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc i ->
      let* () = acc in
      let email = candidate_email i in
      let* priv =
        insert_candidate t ~email
          ~name:(Printf.sprintf "Candidate %d" i)
          ~school:"Gymnazium Praha"
      in
      let key = Crypto.derive_key ~passphrase:priv ~salt:email in
      let ciphertext = Crypto.encrypt ~key (Printf.sprintf "transcript of %s" email) in
      let* _ =
        Db.Database.exec t.db
          "INSERT INTO documents (id, email, filename, ciphertext, checksum) VALUES (?, ?, ?, ?, ?)"
          ~params:
            [
              Db.Value.Int (fresh_id t);
              Db.Value.Text email;
              Db.Value.Text "transcript.pdf";
              Db.Value.Text ciphertext;
              Db.Value.Null;
            ]
      in
      Ok ())
    (Ok ())
    (List.init candidates Fun.id)

(* ------------------------------------------------------------------ *)

let conn_error e = Conn.error_response e

(* Explicit variants, no catch-all: region failures carry internal
   detail (trap renderings, hash/decode messages) that must never reach
   a client body, and the compiler should flag any new variant here. *)
let region_err e =
  match e with
  | Region.Policy_denied _ -> Http.Response.error Http.Status.Forbidden "policy check failed"
  | Region.Quota_denied _ ->
      Http.Response.error (Http.Status.Code 503) "service temporarily unavailable"
  | Region.Not_leakage_free _ | Region.Unsigned _ | Region.Signature_invalid _
  | Region.Hashing_failed _ | Region.Decode_failed _ | Region.Sandbox_trapped _
  | Region.Attest_failed _ ->
      Http.Response.error Http.Status.Internal_error "internal error"

let authenticate request = Http.Request.cookie request "user"

let require_auth request k =
  match authenticate request with
  | Some user -> k user
  | None -> Http.Response.error Http.Status.Unauthorized "not signed in"

(* The user's document key is derived from the private key in their
   cookie — data the DB released through the cookie sink at registration. *)
let document_key ~request ~email =
  match Http.Request.cookie request "private_key" with
  | Some priv -> Some (Crypto.derive_key ~passphrase:priv ~salt:email)
  | None -> None

(* POST /register *)
let register t request =
  match (Http.Request.form_param request "email", Http.Request.form_param request "name")
  with
  | Some email, Some name -> (
      let school = Option.value (Http.Request.form_param request "school") ~default:"" in
      let name_policy = Candidate_data.make { candidate = email } in
      let name_pcon = C.Pcon.Internal.make name_policy name in
      let validation = Region.Verified.run t.regions.validate_name name_pcon in
      (* Fold-in of the validation result: early-return on errors (§9's
         anti-pattern resolution — the result itself stays governed). *)
      if C.Mock.unwrap (C.Pcon.string_length validation) > 0 then
        Http.Response.error Http.Status.Unprocessable "name must not be empty"
      else
        let cr_context = Context.untrusted ~endpoint:"/register" ~user:email () in
        let seed_pcon = C.Pcon.Internal.make name_policy email in
        match Region.Critical.run t.regions.generate_keypair ~context:cr_context seed_pcon with
        | Error e -> region_err e
        | Ok (_public, priv) -> (
            let context = Web.context_for request ~user:email () in
            match
              Conn.insert t.conn ~context ~table:"candidates"
                [
                  ("email", Pcon.wrap_no_policy (Db.Value.Text email));
                  ("name", C.Pcon.Internal.make name_policy (Db.Value.Text name));
                  ("school", Pcon.wrap_no_policy (Db.Value.Text school));
                  ( "private_key",
                    C.Pcon.Internal.make
                      (Private_key.make { owner = email })
                      (Db.Value.Text priv) );
                ]
            with
            | Error e -> conn_error e
            | Ok () -> (
                (* Release the private key through the cookie sink — the
                   policy's single permitted exit. *)
                let key_pcon =
                  C.Pcon.Internal.make (Private_key.make { owner = email }) priv
                in
                let response = Http.Response.text ~status:Http.Status.Created "registered" in
                match Web.set_cookie ~context response ~name:"private_key" ~value:key_pcon with
                | Ok response -> response
                | Error e -> Web.error_response e)))
  | _ -> Http.Response.error Http.Status.Bad_request "email and name are required"

(* POST /documents *)
let upload_document t request =
  require_auth request (fun user ->
      (* The request body is the document itself; metadata travels in the
         query string. *)
      match Http.Request.query_param request "filename" with
      | None -> Http.Response.error Http.Status.Bad_request "filename is required"
      | Some filename -> (
          match document_key ~request ~email:user with
          | None -> Http.Response.error Http.Status.Unauthorized "no private key cookie"
          | Some key -> (
              let policy = Candidate_data.make { candidate = user } in
              let data = Web.body request ~policy:(fun _ -> policy) in
              (* Fingerprint the upload in the sandboxed checksum region:
                 the document is sensitive and the checksum routine is not
                 statically verifiable, so it runs isolated. The result
                 stays wrapped and is stored as a protected column. *)
              let checksum_cell =
                match Region.Sandboxed.run t.regions.checksum data with
                | Ok c -> C.Pcon.Internal.map (fun i -> Db.Value.Int i) c
                | Error _ -> Pcon.wrap_no_policy Db.Value.Null
              in
              let key_pcon =
                C.Pcon.Internal.make (Private_key.make { owner = user }) key
              in
              let cr_context =
                Context.untrusted ~endpoint:request.Http.Request.path ~user ()
              in
              match
                Region.Critical.run t.regions.encrypt_document ~context:cr_context
                  (Pcon.pair data key_pcon)
              with
              | Error e -> region_err e
              | Ok ciphertext -> (
                  let context = Web.context_for request ~user () in
                  match
                    Conn.insert t.conn ~context ~table:"documents"
                      [
                        ("id", Pcon.wrap_no_policy (Db.Value.Int (fresh_id t)));
                        ("email", Pcon.wrap_no_policy (Db.Value.Text user));
                        ("filename", C.Pcon.Internal.make policy (Db.Value.Text filename));
                        ( "ciphertext",
                          C.Pcon.Internal.make policy (Db.Value.Text ciphertext) );
                        ("checksum", checksum_cell);
                      ]
                  with
                  | Ok () -> Http.Response.text ~status:Http.Status.Created "uploaded"
                  | Error e -> conn_error e))))

(* GET /documents/<id> *)
let view_document t request =
  require_auth request (fun user ->
      let id =
        Http.Request.path_param request "id"
        |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:0
      in
      let context = Web.context_for request ~user () in
      match
        Conn.query t.conn ~context "SELECT * FROM documents WHERE id = ?"
          ~params:[ Pcon.wrap_no_policy (Db.Value.Int id) ]
      with
      | Error e -> conn_error e
      | Ok [] -> Http.Response.error Http.Status.Not_found "no such document"
      | Ok (row :: _) -> (
          let owner =
            (* Structural column (no policy binding) naming the owner. *)
            C.Mock.unwrap (C.Pcon_row.text row "email")
          in
          match document_key ~request ~email:owner with
          | None -> Http.Response.error Http.Status.Unauthorized "no private key cookie"
          | Some key -> (
              let ciphertext = C.Pcon_row.text row "ciphertext" in
              let key_pcon =
                C.Pcon.Internal.make (Private_key.make { owner }) key
              in
              let cr_context =
                Context.untrusted ~endpoint:request.Http.Request.path ~user ()
              in
              match
                Region.Critical.run t.regions.decrypt_document ~context:cr_context
                  (Pcon.pair ciphertext key_pcon)
              with
              | Error e -> region_err e
              | Ok (Error msg) -> Http.Response.error Http.Status.Forbidden msg
              | Ok (Ok plaintext) -> Http.Response.text plaintext)))

let admin_template =
  Http.Template.compile_exn
    "<html><body>{{#candidates}}<div>{{profile}}</div>{{/candidates}}</body></html>"

(* GET /admin/candidates *)
let admin_list t request =
  require_auth request (fun user ->
      if not (is_admin user) then
        Http.Response.error Http.Status.Forbidden "admissions officers only"
      else
        let context = Web.context_for request ~user () in
        match Conn.query t.conn ~context "SELECT * FROM candidates" ~params:[] with
        | Error e -> conn_error e
        | Ok rows -> (
            let bindings =
              List.map
                (fun row ->
                  let name = C.Pcon_row.text row "name" in
                  let school = C.Pcon_row.text row "school" in
                  let profile =
                    Region.Verified.run2 t.regions.format_profile name school
                  in
                  [ ("profile", profile) ])
                rows
            in
            match
              Web.render ~context admin_template
                [ ("candidates", Web.Sensitive_list bindings) ]
            with
            | Ok response -> response
            | Error e -> Web.error_response e))

let add_routes t router =
  Http.Router.post router "/register" (register t);
  Http.Router.post router "/documents" (upload_document t);
  Http.Router.get router "/documents/<id>" (view_document t);
  Http.Router.get router "/admin/candidates" (admin_list t)

let handle t request = Http.Router.dispatch t.routes request

let create ?(query_cost_ns = 0) () =
  let db = Db.Database.create ~query_cost_ns () in
  let* () = Db.Database.create_table db candidates_schema in
  let* () = Db.Database.create_table db documents_schema in
  let conn = Conn.create db in
  let candidate_data schema =
    let email = Db.Schema.column_index_exn schema "email" in
    fun row -> Candidate_data.make { candidate = Db.Value.to_text row.(email) }
  in
  List.iter
    (fun column -> Conn.attach_policy conn ~table:"candidates" ~column candidate_data)
    [ "name"; "school" ];
  Conn.attach_policy conn ~table:"candidates" ~column:"private_key" (fun schema ->
      let email = Db.Schema.column_index_exn schema "email" in
      fun row -> Private_key.make { owner = Db.Value.to_text row.(email) });
  List.iter
    (fun column -> Conn.attach_policy conn ~table:"documents" ~column candidate_data)
    [ "filename"; "ciphertext"; "checksum" ];
  let keystore = Sign.Keystore.create () in
  Sign.Keystore.register keystore ~reviewer ~secret:"portfolio-dpo-secret";
  let* regions = make_regions (build_program ()) keystore in
  let sign region =
    match Region.Critical.sign region ~reviewer ~at:3000 with
    | Ok () -> Ok ()
    | Error e -> Error (Region.error_to_string e)
  in
  let* () = sign regions.encrypt_document in
  let* () = sign regions.decrypt_document in
  let* () = sign regions.generate_keypair in
  (* Built once: dispatch only reads the table, so handler domains share it. *)
  let t = { conn; db; regions; next_id = 1; routes = Http.Router.create () } in
  add_routes t t.routes;
  Ok t
