module Http = Sesame_http
module Apps = Sesame_apps
module C = Sesame_core

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let req ?(cookies = "") ?(body = "") meth target =
  Http.Request.make
    ~headers:
      (Http.Headers.of_list
         [ ("Cookie", cookies); ("Content-Type", "application/x-www-form-urlencoded") ])
    ~body meth target

let status r = Http.Status.to_int r.Http.Response.status
let body r = r.Http.Response.body

(* ------------------------------------------------------------------ *)
(* WebSubmit *)

let websubmit () =
  let app = Result.get_ok (Apps.Websubmit.create ()) in
  (match Apps.Websubmit.seed app ~students:12 ~questions:3 with
  | Ok () -> ()
  | Error m -> failwith m);
  Sesame_apps.Email.clear_outbox ();
  app

let as_student i = "user=student" ^ string_of_int i ^ "@school.edu"
let as_admin = "user=admin@school.edu"
let as_leader = "user=leader@school.edu"

let consent_withdrawal ~pushdown () =
  C.Enforce.set_pushdown pushdown;
  Fun.protect ~finally:(fun () -> C.Enforce.set_pushdown true) @@ fun () ->
  let app = websubmit () in
  let student0 = "student0@school.edu" in
  (* The rows the training sink may use, fetched the way /retrain does. *)
  let training_rows () =
    let ctx =
      C.Mock.context ~user:"admin@school.edu" ~endpoint:"/retrain" ~sink:"ml::train" ()
    in
    match
      C.Sesame_conn.query_filtered (Apps.Websubmit.conn app) ~context:ctx ~on:"grade"
        "SELECT * FROM answers WHERE email = ?"
        ~params:[ C.Pcon.wrap_no_policy (Sesame_db.Value.Text student0) ]
    with
    | Ok rows -> List.length rows
    | Error e -> Alcotest.fail (Format.asprintf "%a" C.Sesame_conn.pp_error e)
  in
  (* student0 consents initially: present in the employer export. *)
  let before = Apps.Websubmit.get_employer_info app (req Http.Meth.GET "/employer") in
  check_bool "present before" true (contains (body before) student0);
  (* With pushdown off, retrain checks every row's policy; with it on,
     the consent filter rides the scan instead. *)
  ignore (Apps.Websubmit.retrain_model app (req ~cookies:as_admin Http.Meth.POST "/retrain"));
  check_int "trains before" 3 (training_rows ());
  (* A schema event in an unrelated database must leave the verdicts
     as they were, and the withdrawal below must still take effect. *)
  (match
     Sesame_db.Database.create_table (Sesame_db.Database.create ())
       (Sesame_db.Schema.make_exn ~name:"unrelated"
          [ { name = "x"; ty = Sesame_db.Value.Tint; nullable = true } ])
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_int "trains after unrelated create" 3 (training_rows ());
  let r =
    Apps.Websubmit.handle app
      (req ~cookies:(as_student 0) ~body:"consent=false" Http.Meth.POST "/consent")
  in
  check_int "updated" 200 (status r);
  let after = Apps.Websubmit.get_employer_info app (req Http.Meth.GET "/employer") in
  check_bool "absent after" false (contains (body after) student0);
  check_int "no training rows after" 0 (training_rows ());
  let ctx = C.Mock.context ~user:"admin@school.edu" ~sink:"ml::train" () in
  (match
     C.Sesame_conn.query (Apps.Websubmit.conn app) ~context:ctx
       "SELECT * FROM answers WHERE email = ?"
       ~params:[ C.Pcon.wrap_no_policy (Sesame_db.Value.Text student0) ]
   with
  | Ok (row :: _) ->
      check_bool "training denied" false
        (C.Policy.check (C.Pcon.policy (C.Pcon_row.get row "grade")) ctx)
  | _ -> Alcotest.fail "no rows");
  (* Re-granting consent restores both flows. *)
  ignore
    (Apps.Websubmit.handle app
       (req ~cookies:(as_student 0) ~body:"consent=true" Http.Meth.POST "/consent"));
  let restored = Apps.Websubmit.get_employer_info app (req Http.Meth.GET "/employer") in
  check_bool "present again" true (contains (body restored) student0);
  check_int "trains again" 3 (training_rows ())

(* The points /retrain may use, read straight from the store: every
   graded answer (in slot order) whose author consents to training. *)
let consenting_points app =
  let db = Apps.Websubmit.database app in
  let rows sql params =
    match Sesame_db.Database.exec db sql ~params with
    | Ok (Sesame_db.Database.Rows { columns; rows }) -> (columns, rows)
    | Ok (Sesame_db.Database.Affected _) | Error _ -> Alcotest.fail sql
  in
  let _, consenting =
    rows "SELECT email FROM users WHERE consent_ml = ?" [ Sesame_db.Value.Bool true ]
  in
  let consenting = List.map (fun row -> row.(0)) consenting in
  let columns, answers = rows "SELECT * FROM answers WHERE grade IS NOT NULL" [] in
  let index name =
    let rec go i = function
      | [] -> Alcotest.fail name
      | c :: rest -> if c = name then i else go (i + 1) rest
    in
    go 0 columns
  in
  let email = index "email" and question = index "question" and grade = index "grade" in
  List.filter_map
    (fun row ->
      if List.mem row.(email) consenting then
        Some
          ( float_of_int (Sesame_db.Value.to_int row.(question)),
            Sesame_db.Value.to_float row.(grade) )
      else None)
    answers

let retrain_weights_match_reference ~pushdown () =
  C.Enforce.set_pushdown pushdown;
  Fun.protect ~finally:(fun () -> C.Enforce.set_pushdown true) @@ fun () ->
  let app = websubmit () in
  let r = Apps.Websubmit.retrain_model app (req ~cookies:as_admin Http.Meth.POST "/retrain") in
  check_int "retrained" 200 (status r);
  let points = consenting_points app in
  check_bool "has training data" true (points <> []);
  let expected = Result.get_ok (Sesame_ml.Linreg.train_simple points) in
  match Apps.Websubmit.model app with
  | None -> Alcotest.fail "no model after retrain"
  | Some model ->
      let w, b = C.Pcon.Internal.unwrap model in
      let bits = Int64.bits_of_float in
      Alcotest.(check int64) "weight bits" (bits expected.Sesame_ml.Linreg.weights.(0)) (bits w);
      Alcotest.(check int64) "intercept bits" (bits expected.intercept) (bits b)

(* The /employer body, computed straight from the store: every student
   who consents to employer release (in slot order), with the mean of
   their graded answers (in slot order), formatted as the export region
   does; a student with no graded answer is left out. *)
let employer_reference app =
  let db = Apps.Websubmit.database app in
  let rows sql params =
    match Sesame_db.Database.exec db sql ~params with
    | Ok (Sesame_db.Database.Rows { rows; _ }) -> rows
    | Ok (Sesame_db.Database.Affected _) | Error _ -> Alcotest.fail sql
  in
  rows "SELECT email FROM users WHERE consent_employer = ?" [ Sesame_db.Value.Bool true ]
  |> List.filter_map (fun user ->
         let grades =
           rows "SELECT grade FROM answers WHERE email = ?" [ user.(0) ]
           |> List.filter_map (fun row ->
                  match row.(0) with
                  | Sesame_db.Value.Null -> None
                  | grade -> Some (Sesame_db.Value.to_float grade))
         in
         if grades = [] then None
         else
           Some
             (Printf.sprintf "%s,%.2f" (Sesame_db.Value.to_text user.(0))
                (Sesame_ml.Stats.mean grades)))
  |> String.concat "\n"

let employer_matches_reference ~pushdown () =
  C.Enforce.set_pushdown pushdown;
  Fun.protect ~finally:(fun () -> C.Enforce.set_pushdown true) @@ fun () ->
  let app = websubmit () in
  let post cookies body target =
    status (Apps.Websubmit.handle app (req ~cookies ~body Http.Meth.POST target))
  in
  (* A consenting student adds ungraded answers; a new consenting
     student has nothing but an ungraded answer. *)
  check_int "submitted" 201 (post (as_student 0) "answer=late" "/submit/1/7");
  check_int "submitted again" 201 (post (as_student 3) "answer=later" "/submit/1/8");
  check_bool "registered" true
    (post "" "email=new@school.edu&apikey=k&consent=true" "/register" < 300);
  check_int "new student submitted" 201 (post "user=new@school.edu" "answer=first" "/submit/1/0");
  let r = Apps.Websubmit.get_employer_info app (req Http.Meth.GET "/employer") in
  check_int "200" 200 (status r);
  let expected = employer_reference app in
  check_bool "reference lists the consenting graded students" true
    (contains expected "student0@school.edu" && not (contains expected "new@school.edu"));
  Alcotest.(check string) "body" expected (body r)

let websubmit_tests =
  [
    test "students view their own answers" (fun () ->
        let app = websubmit () in
        let r = Apps.Websubmit.handle app (req ~cookies:(as_student 0) Http.Meth.GET "/view/1") in
        check_int "200" 200 (status r);
        check_bool "contains answer" true (contains (body r) "student0"));
    test "students cannot view others' answers" (fun () ->
        let app = websubmit () in
        (* Answer 1 belongs to student0; the WHERE clause scopes to the
           requesting student, so student1 sees nothing. *)
        let r = Apps.Websubmit.handle app (req ~cookies:(as_student 1) Http.Meth.GET "/view/1") in
        check_int "404" 404 (status r));
    test "unauthenticated requests are rejected" (fun () ->
        let app = websubmit () in
        check_int "401" 401 (status (Apps.Websubmit.handle app (req Http.Meth.GET "/view/1"))));
    test "submitting stores the answer and emails the author" (fun () ->
        let app = websubmit () in
        let r =
          Apps.Websubmit.handle app
            (req ~cookies:(as_student 2) ~body:"answer=my+essay" Http.Meth.POST "/submit/1/9")
        in
        check_int "201" 201 (status r);
        check_int "emailed" 1 (Sesame_apps.Email.sent_count ());
        let mail = List.hd (Sesame_apps.Email.outbox ()) in
        check_bool "to author" true (mail.Sesame_apps.Email.recipient = "student2@school.edu");
        check_bool "body formatted by the VR" true
          (contains mail.Sesame_apps.Email.body "my essay"));
    test "staff answers view: admin and discussion leaders pass, others fail" (fun () ->
        let app = websubmit () in
        let view cookies compose =
          status
            (Apps.Websubmit.view_answers app ~compose (req ~cookies Http.Meth.GET "/answers/1"))
        in
        check_int "admin" 200 (view as_admin false);
        check_int "admin composed" 200 (view as_admin true);
        check_int "leader" 200 (view as_leader true);
        (* student0 is also a discussion leader in the seed *)
        check_int "student leader" 200 (view (as_student 0) true);
        check_int "plain student" 403 (view (as_student 5) false));
    test "policy composition reduces discussion-leader checks to one query" (fun () ->
        let app = websubmit () in
        let db = Apps.Websubmit.database app in
        let count compose =
          Sesame_db.Database.reset_query_count db;
          ignore
            (Apps.Websubmit.view_answers app ~compose
               (req ~cookies:as_leader Http.Meth.GET "/answers/1"));
          Sesame_db.Database.query_count db
        in
        let uncomposed = count false and composed = count true in
        check_bool "composition saves queries" true (composed < uncomposed));
    test "aggregates: admin sees k-anonymized averages" (fun () ->
        let app = websubmit () in
        let r = Apps.Websubmit.get_aggregates app (req ~cookies:as_admin Http.Meth.GET "/aggregates") in
        check_int "200" 200 (status r);
        check_bool "has lecture row" true (contains (body r) "lecture 1"));
    test "aggregates under k fail the k-anonymity policy" (fun () ->
        (* Course with 3 students < k=5: the aggregate must not be
           released. *)
        let app = Result.get_ok (Apps.Websubmit.create ~k_anonymity:5 ()) in
        (match Apps.Websubmit.seed app ~students:3 ~questions:1 with
        | Ok () -> ()
        | Error m -> failwith m);
        let r = Apps.Websubmit.get_aggregates app (req ~cookies:as_admin Http.Meth.GET "/aggregates") in
        check_int "403" 403 (status r));
    test "aggregates are admin-only" (fun () ->
        let app = websubmit () in
        check_int "403" 403
          (status
             (Apps.Websubmit.get_aggregates app
                (req ~cookies:(as_student 1) Http.Meth.GET "/aggregates"))));
    test "employer info releases only consenting students" (fun () ->
        let app = websubmit () in
        let r = Apps.Websubmit.get_employer_info app (req Http.Meth.GET "/employer") in
        check_int "200" 200 (status r);
        (* Students 0,3,6,9 consent (every third of 12). *)
        check_bool "consenting included" true (contains (body r) "student0@school.edu");
        check_bool "non-consenting excluded" false (contains (body r) "student1@school.edu"));
    test "retrain uses only consenting grades, then predict works" (fun () ->
        let app = websubmit () in
        let r = Apps.Websubmit.retrain_model app (req ~cookies:as_admin Http.Meth.POST "/retrain") in
        check_int "retrained" 200 (status r);
        let p = Apps.Websubmit.predict_grades app (req ~cookies:as_admin Http.Meth.GET "/predict/2") in
        check_int "predicted" 200 (status p);
        check_bool "numeric" true (float_of_string_opt (body p) <> None));
    test "retrain is admin-only" (fun () ->
        let app = websubmit () in
        check_int "403" 403
          (status (Apps.Websubmit.retrain_model app (req ~cookies:(as_student 0) Http.Meth.POST "/retrain"))));
    test "registration hashes the key in the sandbox" (fun () ->
        let app = websubmit () in
        let r =
          Apps.Websubmit.register_user app
            (req ~body:"email=n@x.edu&apikey=k123&consent=true" Http.Meth.POST "/register")
        in
        check_int "201" 201 (status r);
        (* The stored hash must verify against the raw key. *)
        match
          Sesame_db.Database.exec (Apps.Websubmit.database app)
            "SELECT apikey_hash FROM users WHERE email = ?"
            ~params:[ Sesame_db.Value.Text "n@x.edu" ]
        with
        | Ok (Sesame_db.Database.Rows { rows = [ [| Sesame_db.Value.Text h |] ]; _ }) ->
            check_bool "verifies" true
              (Sesame_ml.Apikey.verify ~iterations:Apps.Websubmit_schema.hash_iterations
                 ~salt:Apps.Websubmit_schema.hash_salt ~key:"k123" h)
        | _ -> Alcotest.fail "hash not stored");
    test "duplicate registration is rejected by the DB" (fun () ->
        let app = websubmit () in
        let r () =
          Apps.Websubmit.register_user app
            (req ~body:"email=dup@x.edu&apikey=k" Http.Meth.POST "/register")
        in
        check_int "first" 201 (status (r ()));
        check_int "second" 500 (status (r ())));
    test "withdrawing consent removes the student from employer and training flows (pushdown on)"
      (consent_withdrawal ~pushdown:true);
    test "withdrawing consent removes the student from employer and training flows (pushdown off)"
      (consent_withdrawal ~pushdown:false);
    test "baseline endpoints behave equivalently on the happy path" (fun () ->
        let base = Result.get_ok (Apps.Websubmit_baseline.create ()) in
        (match Apps.Websubmit_baseline.seed base ~students:12 ~questions:3 with
        | Ok () -> ()
        | Error m -> failwith m);
        check_int "aggregates" 200
          (status (Apps.Websubmit_baseline.get_aggregates base (req ~cookies:as_admin Http.Meth.GET "/aggregates")));
        check_int "retrain" 200
          (status (Apps.Websubmit_baseline.retrain_model base (req ~cookies:as_admin Http.Meth.POST "/retrain")));
        let e = Apps.Websubmit_baseline.get_employer_info base (req Http.Meth.GET "/employer") in
        check_bool "same consenting set" true (contains (body e) "student0@school.edu"));
    test "baseline declares its answers.email index at creation" (fun () ->
        let base = Result.get_ok (Apps.Websubmit_baseline.create ()) in
        let table name =
          Sesame_db.Database.table_exn (Apps.Websubmit_baseline.database base) name
        in
        check_bool "answers.email" true (Sesame_db.Table.has_index (table "answers") "email");
        check_bool "no other index" false
          (Sesame_db.Table.has_index (table "answers") "lecture"
          || Sesame_db.Table.has_index (table "users") "email"));
    test "employer's body equals the store's reference after ungraded submits (pushdown on)"
      (employer_matches_reference ~pushdown:true);
    test "employer's body equals the store's reference after ungraded submits (pushdown off)"
      (employer_matches_reference ~pushdown:false);
    test "retrain's weights are bit-identical to train_simple (pushdown on)"
      (retrain_weights_match_reference ~pushdown:true);
    test "retrain's weights are bit-identical to train_simple (pushdown off)"
      (retrain_weights_match_reference ~pushdown:false);
    test "default-hardened websubmit retrains at 100x100" (fun () ->
        let hardening = Result.get_ok (Apps.Websubmit.harden ()) in
        let app = Result.get_ok (Apps.Websubmit.create ~hardening ()) in
        (match Apps.Websubmit.seed app ~students:100 ~questions:100 with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        let r = Apps.Websubmit.retrain_model app (req ~cookies:as_admin Http.Meth.POST "/retrain") in
        check_int "200" 200 (status r);
        Alcotest.(check string) "body" "model retrained" (body r);
        check_int "no arena quarantined" 0
          (Sesame_sandbox.Pool.stats hardening.Apps.Websubmit.sandbox_pool).poisoned);
  ]

(* ------------------------------------------------------------------ *)
(* YouChat *)

let youchat () =
  let app = Result.get_ok (Apps.Youchat.create ()) in
  (match Apps.Youchat.seed app ~users:6 ~messages:12 with
  | Ok () -> ()
  | Error m -> failwith m);
  app

let chat_user i = "user=user" ^ string_of_int i ^ "@chat.io"

let youchat_tests =
  [
    test "inbox shows own messages" (fun () ->
        let app = youchat () in
        let r = Apps.Youchat.handle app (req ~cookies:(chat_user 1) Http.Meth.GET "/inbox") in
        check_int "200" 200 (status r);
        check_bool "has messages" true (contains (body r) "message"));
    test "group feed visible to members only" (fun () ->
        let app = youchat () in
        (* Users 0-2 are members of group 1; user 5 is not. *)
        check_int "member" 200
          (status (Apps.Youchat.handle app (req ~cookies:(chat_user 1) Http.Meth.GET "/group/1")));
        check_int "outsider" 403
          (status (Apps.Youchat.handle app (req ~cookies:(chat_user 5) Http.Meth.GET "/group/1"))));
    test "send a direct message and read it back" (fun () ->
        let app = youchat () in
        let r =
          Apps.Youchat.handle app
            (req ~cookies:(chat_user 0) ~body:"to=user4%40chat.io&body=psst" Http.Meth.POST "/send")
        in
        check_int "201" 201 (status r);
        let inbox = Apps.Youchat.handle app (req ~cookies:(chat_user 4) Http.Meth.GET "/inbox") in
        check_bool "recipient sees it" true (contains (body inbox) "psst"));
    test "shout region uppercases inside the VR" (fun () ->
        let app = youchat () in
        ignore
          (Apps.Youchat.handle app
             (req ~cookies:(chat_user 0) ~body:"to=user4%40chat.io&body=quiet&shout=true"
                Http.Meth.POST "/send"));
        let inbox = Apps.Youchat.handle app (req ~cookies:(chat_user 4) Http.Meth.GET "/inbox") in
        check_bool "uppercased" true (contains (body inbox) "QUIET"));
    test "unauthenticated send rejected" (fun () ->
        let app = youchat () in
        check_int "401" 401
          (status (Apps.Youchat.handle app (req ~body:"body=x" Http.Meth.POST "/send"))));
  ]

(* ------------------------------------------------------------------ *)
(* Voltron *)

let voltron () =
  let app = Result.get_ok (Apps.Voltron.create ()) in
  (match Apps.Voltron.seed app ~classes:2 ~students_per_class:4 with
  | Ok () -> ()
  | Error m -> failwith m);
  app

let voltron_tests =
  [
    test "only admins enroll instructors (policy 1)" (fun () ->
        let app = voltron () in
        let enroll cookies =
          status
            (Apps.Voltron.handle app
               (req ~cookies ~body:"email=new@university.edu" Http.Meth.POST "/instructors"))
        in
        check_int "admin ok" 201 (enroll "user=dean@university.edu");
        check_int "instructor denied" 403 (enroll "user=instructor0@university.edu"));
    test "students enrolled only by their class's instructor (policy 2)" (fun () ->
        let app = voltron () in
        let enroll cookies =
          status
            (Apps.Voltron.handle app
               (req ~cookies ~body:"email=kid@university.edu&group=1" Http.Meth.POST
                  "/classes/1/students"))
        in
        check_int "right instructor" 201 (enroll "user=instructor0@university.edu");
        check_int "other instructor denied" 403 (enroll "user=instructor1@university.edu"));
    test "buffer read restricted to group and instructor (policy 3)" (fun () ->
        let app = voltron () in
        (* Buffers come after enrollments; with 4 students per class, the
           first buffer of class 1 has id 5 and group 1 (students 0,1). *)
        let read cookies = status (Apps.Voltron.handle app (req ~cookies Http.Meth.GET "/buffers/5")) in
        check_int "group member" 200 (read "user=student0_0@university.edu");
        check_int "instructor" 200 (read "user=instructor0@university.edu");
        check_int "other group" 403 (read "user=student0_2@university.edu");
        check_int "other class instructor" 403 (read "user=instructor1@university.edu"));
    test "buffer write merges via the VR and persists" (fun () ->
        let app = voltron () in
        let w =
          Apps.Voltron.handle app
            (req ~cookies:"user=student0_1@university.edu" ~body:"edit=let x = 1;"
               Http.Meth.POST "/buffers/5")
        in
        check_int "written" 200 (status w);
        let r =
          Apps.Voltron.handle app
            (req ~cookies:"user=instructor0@university.edu" Http.Meth.GET "/buffers/5")
        in
        check_bool "merged" true (contains (body r) "let x = 1;"));
    test "buffer write by non-member denied before mutation" (fun () ->
        let app = voltron () in
        let w =
          Apps.Voltron.handle app
            (req ~cookies:"user=student0_2@university.edu" ~body:"edit=sabotage"
               Http.Meth.POST "/buffers/5")
        in
        check_int "403" 403 (status w);
        let r =
          Apps.Voltron.handle app
            (req ~cookies:"user=instructor0@university.edu" Http.Meth.GET "/buffers/5")
        in
        check_bool "unchanged" false (contains (body r) "sabotage"));
  ]

(* ------------------------------------------------------------------ *)
(* Portfolio *)

let portfolio () =
  let app = Result.get_ok (Apps.Portfolio.create ()) in
  (match Apps.Portfolio.seed app ~candidates:3 with
  | Ok () -> ()
  | Error m -> failwith m);
  app

let portfolio_tests =
  [
    test "registration sets the private key as a cookie (policy 2's exit)" (fun () ->
        let app = portfolio () in
        let r =
          Apps.Portfolio.handle app
            (req ~body:"email=new@school.cz&name=Nova" Http.Meth.POST "/register")
        in
        check_int "201" 201 (status r);
        match Http.Response.header r "set-cookie" with
        | Some cookie -> check_bool "private_key" true (contains cookie "private_key=")
        | None -> Alcotest.fail "no cookie");
    test "registration validates the name in a VR" (fun () ->
        let app = portfolio () in
        check_int "422" 422
          (status
             (Apps.Portfolio.handle app
                (req ~body:"email=e@school.cz&name=+" Http.Meth.POST "/register"))));
    test "upload then view round-trips through encrypt/decrypt CRs" (fun () ->
        let app = portfolio () in
        let email = "doc@school.cz" in
        let reg =
          Apps.Portfolio.handle app
            (req ~body:("email=" ^ email ^ "&name=Doc") Http.Meth.POST "/register")
        in
        let cookie = Option.get (Http.Response.header reg "set-cookie") in
        let priv = List.hd (String.split_on_char ';' cookie) (* "private_key=<hex>" *) in
        let cookies = "user=" ^ email ^ "; " ^ priv in
        let up =
          Apps.Portfolio.handle app
            (req ~cookies ~body:"my secret essay" Http.Meth.POST "/documents?filename=e.pdf")
        in
        check_int "uploaded" 201 (status up);
        (* Seeded docs occupy ids 1-3; the fresh upload is id 4. *)
        let view =
          Apps.Portfolio.handle app (req ~cookies Http.Meth.GET "/documents/4")
        in
        check_int "viewed" 200 (status view);
        check_bool "decrypted" true (contains (body view) "my secret essay"));
    test "documents are stored encrypted at rest" (fun () ->
        let app = portfolio () in
        match
          Sesame_db.Database.exec (Apps.Portfolio.database app)
            "SELECT ciphertext FROM documents WHERE id = 1" ~params:[]
        with
        | Ok (Sesame_db.Database.Rows { rows = [ [| Sesame_db.Value.Text ct |] ]; _ }) ->
            check_bool "not plaintext" false (contains ct "transcript of")
        | _ -> Alcotest.fail "no document");
    test "candidate views their own document decrypted" (fun () ->
        let app = portfolio () in
        (* Seeded candidate0's key derives from their stored private key. *)
        let priv =
          match
            Sesame_db.Database.exec (Apps.Portfolio.database app)
              "SELECT private_key FROM candidates WHERE email = ?"
              ~params:[ Sesame_db.Value.Text "candidate0@school.cz" ]
          with
          | Ok (Sesame_db.Database.Rows { rows = [ [| Sesame_db.Value.Text k |] ]; _ }) -> k
          | _ -> Alcotest.fail "no key"
        in
        let r =
          Apps.Portfolio.handle app
            (req ~cookies:("user=candidate0@school.cz; private_key=" ^ priv)
               Http.Meth.GET "/documents/1")
        in
        check_int "200" 200 (status r);
        check_bool "plaintext" true (contains (body r) "transcript of candidate0@school.cz"));
    test "admin candidate list requires the admin role" (fun () ->
        let app = portfolio () in
        check_int "officer" 200
          (status
             (Apps.Portfolio.handle app
                (req ~cookies:"user=officer@school.cz" Http.Meth.GET "/admin/candidates")));
        check_int "candidate" 403
          (status
             (Apps.Portfolio.handle app
                (req ~cookies:"user=candidate0@school.cz" Http.Meth.GET "/admin/candidates"))));
    test "crypto round-trips and authenticates" (fun () ->
        let key = Sesame_apps.Crypto.derive_key ~passphrase:"p" ~salt:"s" in
        let ct = Sesame_apps.Crypto.encrypt ~key "hello" in
        check_bool "rt" true (Sesame_apps.Crypto.decrypt ~key ct = Ok "hello");
        let wrong = Sesame_apps.Crypto.derive_key ~passphrase:"q" ~salt:"s" in
        check_bool "wrong key" true (Result.is_error (Sesame_apps.Crypto.decrypt ~key:wrong ct));
        let corrupted =
          String.mapi (fun i c -> if i = 66 then Char.chr (Char.code c lxor 1) else c) ct
        in
        check_bool "tamper" true (Result.is_error (Sesame_apps.Crypto.decrypt ~key corrupted)));
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 5/6/7 invariants over the live registry *)

let inventory_tests =
  [
    test "all four apps instantiate and register regions" (fun () ->
        C.Registry.reset ();
        ignore (websubmit ());
        ignore (youchat ());
        ignore (voltron ());
        ignore (portfolio ());
        check_bool "youchat VRs" true (C.Registry.count ~app:"youchat" C.Registry.Verified = 3);
        check_bool "voltron CRs" true (C.Registry.count ~app:"voltron" C.Registry.Critical = 2);
        check_bool "portfolio CRs" true (C.Registry.count ~app:"portfolio" C.Registry.Critical = 3);
        check_bool "websubmit SRs" true (C.Registry.count ~app:"websubmit" C.Registry.Sandboxed = 2);
        check_bool "youchat has no CRs (Fig. 6)" true
          (C.Registry.count ~app:"youchat" C.Registry.Critical = 0));
    test "policy inventories match the paper's per-app policy counts" (fun () ->
        check_int "youchat" 1 (List.length Apps.Youchat.policy_inventory);
        check_int "voltron" 6 (List.length Apps.Voltron.policy_inventory);
        check_int "portfolio" 2 (List.length Apps.Portfolio.policy_inventory);
        check_int "websubmit" 7 (List.length Apps.Websubmit.policy_inventory));
  ]

let () =
  Alcotest.run "apps"
    [
      ("websubmit", websubmit_tests);
      ("youchat", youchat_tests);
      ("voltron", voltron_tests);
      ("portfolio", portfolio_tests);
      ("inventory", inventory_tests);
    ]
