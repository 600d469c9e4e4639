module C = Sesame_core
module Db = Sesame_db
module Http = Sesame_http
module Scrut = Sesame_scrutinizer
module Sign = Sesame_signing
module Sbx = Sesame_sandbox
module Policy = C.Policy
module Pcon = C.Pcon
module Context = C.Context
module Region = C.Region
module Conn = C.Sesame_conn
module Web = C.Sesame_web
module Enforce = C.Enforce
module Elision = Scrut.Elision

let app_name = "websubmit"
let admins = [ "admin@school.edu" ]
let hash_salt = Websubmit_schema.hash_salt
let hash_iterations = Websubmit_schema.hash_iterations

let is_admin user = List.mem user admins

(* The acting principal of a check: the recipient named by a critical
   region's context if present (Fig. 1b line 15), else the authenticated
   user. *)
let principal ctx =
  match Context.custom ctx "recipient" with
  | Some r -> Some r
  | None -> Context.user ctx

(* ------------------------------------------------------------------ *)
(* Policies (§9: WebSubmit's seven policies). Each [*_loc] constant
   records the size of the policy's definition for the Fig. 5 table. *)

module Sset = Set.Make (String)

(* (i) Answers are visible to the author, admins/instructors, and the
   lecture's discussion leaders. Discussion leaders live in the database,
   so every check costs a query; joining same-lecture policies shares it
   (Fig. 9c). *)
module Answer_access_family = struct
  type s = { authors : Sset.t; lecture : int; db : Db.Database.t }

  let name = "websubmit::answer-access"

  let discussion_leads db lecture =
    match
      Db.Database.exec db "SELECT email FROM discussion_leaders WHERE lecture = ?"
        ~params:[ Db.Value.Int lecture ]
    with
    | Ok (Db.Database.Rows { rows; _ }) ->
        List.filter_map
          (fun row -> match row.(0) with Db.Value.Text e -> Some e | _ -> None)
          rows
    | Ok (Db.Database.Affected _) | Error _ -> []

  let check s ctx =
    match principal ctx with
    | None -> false
    | Some who ->
        Sset.mem who s.authors || is_admin who
        || List.mem who (discussion_leads s.db s.lecture)

  let join =
    Some
      (fun a b ->
        if a.lecture = b.lecture then
          Some { a with authors = Sset.union a.authors b.authors }
        else None)

  let no_folding = false

  let describe s =
    Printf.sprintf "AnswerAccess(lecture=%d, authors=%d)" s.lecture
      (Sset.cardinal s.authors)
end

module Answer_access = Policy.Make (Answer_access_family)

let answer_access_loc = (26, 9) (* (policy_loc, check_loc) *)

(* (ii) Individual grades: the student and the instructor only. Employers
   never see individual grades; they are admitted here only so that the
   conjoined Employer_release policy (iii) can gate released averages by
   consent. *)
module Grade_access_family = struct
  type s = { student : string }

  let name = "websubmit::grade-access"

  let check s ctx =
    Context.custom ctx "role" = Some "employer"
    ||
    match principal ctx with
    | None -> false
    | Some who -> who = s.student || is_admin who

  let join = None (* different students cannot be folded together (§10.2) *)
  let no_folding = false
  let describe s = Printf.sprintf "GradeAccess(%s)" s.student
end

module Grade_access = Policy.Make (Grade_access_family)

let grade_access_loc = (13, 6)

(* (iii) Average grade and email go to employers only with consent. *)
module Employer_release_family = struct
  type s = { student : string; consent : bool }

  let name = "websubmit::employer-release"

  let check s ctx =
    match Context.custom ctx "role" with
    | Some "employer" -> s.consent
    | Some _ | None -> (
        match principal ctx with
        | None -> false
        | Some who -> who = s.student || is_admin who)

  let join = None
  let no_folding = false

  let describe s =
    Printf.sprintf "EmployerRelease(%s, consent=%b)" s.student s.consent
end

module Employer_release = Policy.Make (Employer_release_family)

let employer_release_loc = (15, 8)

(* (iv) Grades feed model training only with consent. Consent lives in the
   users table; the policy queries it on every check, so a consent change
   applies to the next check. *)
module Ml_training_family = struct
  type s = { student : string; db : Db.Database.t }

  let name = "websubmit::ml-training"

  let consents s =
    match
      Db.Database.exec s.db "SELECT consent_ml FROM users WHERE email = ?"
        ~params:[ Db.Value.Text s.student ]
    with
    | Ok (Db.Database.Rows { rows = [ [| Db.Value.Bool b |] ]; _ }) -> b
    | _ -> false

  let check s ctx =
    match Context.sink ctx with
    | Some "ml::train" -> consents s
    | Some _ | None -> true (* other sinks are governed by the other policies *)

  let join = None
  let no_folding = false
  let describe s = Printf.sprintf "MlTraining(%s)" s.student
end

module Ml_training = Policy.Make (Ml_training_family)

let ml_training_loc = (12, 5)

(* (v) Protected demographics must not be aggregated by administrators. *)
module Demographics_family = struct
  type s = { student : string }

  let name = "websubmit::demographics"

  let check s ctx =
    if Context.custom ctx "purpose" = Some "aggregate" then false
    else
      match principal ctx with
      | None -> false
      | Some who -> who = s.student || is_admin who

  let join = None
  let no_folding = true (* shape of demographic data must not leak either *)
  let describe s = Printf.sprintf "Demographics(%s)" s.student
end

module Demographics = Policy.Make (Demographics_family)

let demographics_loc = (13, 7)

(* (vi) Released aggregates must cover at least k students. *)
module K_anonymity_family = struct
  type s = { k : int; members : int }

  let name = "websubmit::k-anonymity"

  let check s _ctx = s.members >= s.k

  let join =
    Some (fun a b -> Some { k = max a.k b.k; members = min a.members b.members })

  let no_folding = false
  let describe s = Printf.sprintf "KAnonymity(k=%d, members=%d)" s.k s.members
end

module K_anonymity = Policy.Make (K_anonymity_family)

let k_anonymity_loc = (11, 1)

(* (vii) API-key hashes are visible to their owner only. *)
module Api_key_family = struct
  type s = { owner : string }

  let name = "websubmit::api-key"

  let check s ctx =
    match principal ctx with None -> false | Some who -> who = s.owner

  let join = None
  let no_folding = true
  let describe s = Printf.sprintf "ApiKey(%s)" s.owner
end

module Api_key = Policy.Make (Api_key_family)

let api_key_loc = (10, 2)

let policy_inventory =
  [
    ("AnswerAccess", fst answer_access_loc, snd answer_access_loc);
    ("GradeAccess", fst grade_access_loc, snd grade_access_loc);
    ("EmployerRelease", fst employer_release_loc, snd employer_release_loc);
    ("MlTraining", fst ml_training_loc, snd ml_training_loc);
    ("Demographics", fst demographics_loc, snd demographics_loc);
    ("KAnonymity", fst k_anonymity_loc, snd k_anonymity_loc);
    ("ApiKey", fst api_key_loc, snd api_key_loc);
  ]


(* ------------------------------------------------------------------ *)
(* The IR program modelling the regions' code (see DESIGN.md on the
   MIR → Region-IR substitution). *)

let build_program () =
  let open Scrut.Ir in
  let program = Scrut.Program.create () in
  Scrut.Program.define_all program
    [
      func ~name:"ws::fmt_submitted" ~params:[ "answer" ]
        [ Return (Some (Binop (Concat, Str_lit "submitted: ", Var "answer"))) ];
      func ~name:"ws::join_lines" ~params:[ "lines" ]
        [
          Let ("out", Str_lit "");
          For
            ( "line",
              Var "lines",
              [ Assign (Lvar "out", Binop (Concat, Var "out", Var "line")) ] );
          Return (Some (Var "out"));
        ];
      func ~name:"ws::mean" ~params:[ "values" ]
        [
          Let ("sum", Float_lit 0.0);
          Let ("count", Int_lit 0);
          For
            ( "v",
              Var "values",
              [
                Assign (Lvar "sum", Binop (Add, Var "sum", Var "v"));
                Assign (Lvar "count", Binop (Add, Var "count", Int_lit 1));
              ] );
          Return (Some (Binop (Div, Var "sum", Var "count")));
        ];
      func ~name:"ws::predict" ~params:[ "model"; "x" ]
        [
          Let ("w", Field (Var "model", "weight"));
          Let ("b", Field (Var "model", "intercept"));
          Return (Some (Binop (Add, Binop (Mul, Var "w", Var "x"), Var "b")));
        ];
      (* The hashing and training regions call into native crates, which is
         why Scrutinizer rejects them and they run as sandboxed regions. *)
      native ~package:"sha2" ~name:"sha2::digest" ~params:[ "data" ] ();
      func ~name:"ws::hash_key" ~params:[ "key" ]
        [
          Let ("digest", Call (Static "sha2::digest", [ Var "key" ]));
          Return (Some (Var "digest"));
        ];
      native ~package:"nalgebra" ~name:"nalgebra::solve" ~params:[ "a"; "b" ] ();
      func ~name:"ws::train" ~params:[ "points" ]
        [
          Let ("weights", Call (Static "nalgebra::solve", [ Var "points"; Var "points" ]));
          Return (Some (Var "weights"));
        ];
      (* Critical-region bodies: they intentionally externalize. *)
      native ~package:"lettre" ~name:"lettre::send" ~params:[ "to"; "subject"; "body" ] ();
      func ~name:"ws::email_confirmation" ~params:[ "body"; "recipient" ]
        [
          Expr_stmt
            (Call
               ( Static "lettre::send",
                 [ Var "recipient"; Str_lit "submission received"; Var "body" ] ));
        ];
      native ~package:"csv" ~name:"csv::write_record" ~params:[ "record" ] ();
      func ~name:"ws::export_employer_row" ~params:[ "email"; "average" ]
        [
          Let ("record", Tuple [ Var "email"; Var "average" ]);
          Expr_stmt (Call (Static "csv::write_record", [ Var "record" ]));
        ];
    ];
  program

let lockfile =
  Sign.Lockfile.of_packages
    [
      { name = "lettre"; version = "0.11.4"; deps = [ "base64"; "mime" ] };
      { name = "base64"; version = "0.22.1"; deps = [] };
      { name = "mime"; version = "0.3.17"; deps = [] };
      { name = "csv"; version = "1.3.0"; deps = [ "serde" ] };
      { name = "serde"; version = "1.0.203"; deps = [] };
      { name = "sha2"; version = "0.10.8"; deps = [ "digest" ] };
      { name = "digest"; version = "0.10.7"; deps = [] };
      { name = "nalgebra"; version = "0.32.5"; deps = [] };
    ]

(* ------------------------------------------------------------------ *)
(* Optional sandbox hardening: a preflighted pool (fail closed if any
   SFI trap test is missed), per-run budgets, and a cumulative quota
   shared by both sandboxed regions. Off by default so the unhardened
   paper-workload numbers stay comparable. *)

type hardening = {
  sandbox_pool : Sbx.Pool.t;
  preflight : Sbx.Preflight.report;
  quota : Sbx.Quota.t;
  sandbox_config : Sbx.Runtime.config;
}

let harden ?(pool_capacity = 4) ?max_pool_capacity ?(arena_size = 256 * 1024) ?quota_limits
    ?(budget = Sbx.Runtime.budget ~deadline_s:5.0 ~fuel:1_000_000 ~mem_bytes:(128 * 1024) ())
    () =
  match
    Sbx.Sfi.create_pool ~capacity:pool_capacity ?max_capacity:max_pool_capacity ~arena_size ()
  with
  | Error report ->
      Error (Printf.sprintf "sandbox preflight failed closed: %s" (Sbx.Preflight.summary report))
  | Ok (pool, preflight) ->
      let quota = Sbx.Quota.create ?limits:quota_limits () in
      let sandbox_config = Sbx.Runtime.config ~mode:(Sbx.Runtime.Pooled pool) ~budget () in
      Ok { sandbox_pool = pool; preflight; quota; sandbox_config }

type regions = {
  fmt_confirmation : (string, string) Region.Verified.t;
  join_answers : (string list, string) Region.Verified.t;
  mean_grades : (Db.Value.t array list, float) Region.Verified.t;
  predict : ((float * float) * float, float) Region.Verified.t;
  hash_key : (string, string) Region.Sandboxed.t;
  train : (Db.Value.t array list, float list) Region.Sandboxed.t;
  email_confirmation : (string, unit) Region.Critical.t;
  export_employer : (string * float, string) Region.Critical.t;
}

type t = {
  conn : Conn.t;
  mutable db : Db.Database.t;
      (* rebound by [recover] after brownout: the connector swaps in a
         freshly recovered store, and the app's direct-db paths
         (authenticate, register, answer_count) must follow it *)
  keystore : Sign.Keystore.t;
  program : Scrut.Program.t;
  k : int;
  regions : regions;
  hardening : hardening option;
  mutable model : (float * float) Pcon.t option;  (** (weight, intercept) *)
  mutable next_answer_id : int;
  routes : Http.Router.t;
}

let conn t = t.conn
let program t = t.program
let database t = t.db
let model t = t.model

(* Leave brownout: recover the durable store through the connector and
   follow the swap in the app's own db handle. Policy closures minted
   before the swap keep their stale handle; their lookups fail closed
   (empty leads, no consent), never open. *)
let recover t =
  match Conn.exit_brownout t.conn with
  | Error m -> Error m
  | Ok store ->
      t.db <- Conn.database t.conn;
      Ok store
let hardening t = t.hardening
let sandbox_hash_region t = t.regions.hash_key
let sandbox_train_region t = t.regions.train

let ( let* ) = Result.bind

let region_error e = Error (Region.error_to_string e)

let spec ?captures name params body = Scrut.Spec.make ~name ~params ?captures body

(* The predict region's spec is shared with the elision model's /predict
   site, so field-disjointness certificates replay against the exact IR
   the verifier checked. The body is written out place-by-place (rather
   than delegating to ws::predict) because call summaries truncate path
   sensitivity at the boundary: inline, the analysis can see that only
   model.weight and model.intercept are ever read. *)
let predict_spec =
  Scrut.Ir.(
    spec "ml::predict" [ "model"; "x" ]
      [
        Let ("w", Field (Var "model", "weight"));
        Let ("b", Field (Var "model", "intercept"));
        Return (Some (Binop (Add, Binop (Mul, Var "w", Var "x"), Var "b")));
      ])

let make_regions ?hardening program keystore db =
  let open Scrut.Ir in
  let sbx_config = Option.map (fun h -> h.sandbox_config) hardening in
  let sbx_quota = Option.map (fun h -> h.quota) hardening in
  let* fmt_confirmation =
    Result.map_error Region.error_to_string
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "submit::fmt_confirmation" [ "answer" ]
              [ Return (Some (Call (Static "ws::fmt_submitted", [ Var "answer" ]))) ])
         ~f:(fun answer -> "submitted: " ^ answer)
         ())
  in
  let* join_answers =
    Result.map_error Region.error_to_string
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "staff::join_answers" [ "answers" ]
              [ Return (Some (Call (Static "ws::join_lines", [ Var "answers" ]))) ])
         ~f:(fun answers -> String.concat "\n" answers)
         ())
  in
  let* mean_grades =
    Result.map_error Region.error_to_string
      (Region.Verified.make ~app:app_name ~program
         ~spec:
           (spec "aggregate::mean_grades" [ "grades" ]
              [ Return (Some (Call (Static "ws::mean", [ Var "grades" ]))) ])
         ~f:(fun grades ->
           (* One grade cell a row, as Employer's fold reads them. *)
           Sesame_ml.Stats.mean (List.map (fun cells -> Db.Value.to_float cells.(0)) grades))
         ())
  in
  let* predict =
    Result.map_error Region.error_to_string
      (Region.Verified.make ~app:app_name ~program ~spec:predict_spec
         ~f:(fun ((weight, intercept), x) -> (weight *. x) +. intercept)
         ())
  in
  (* Sandboxed regions: their IR models are genuinely rejected (they call
     native code); tests assert this. The executable closures run under
     the sandbox runtime. *)
  let hash_key =
    Region.Sandboxed.make ~app:app_name ~name:"register::hash_key" ?config:sbx_config
      ?quota:sbx_quota ~loc:4
      ~encode:(fun key -> Sbx.Value.Str key)
      ~decode:(function
        | Sbx.Value.Str digest -> Ok digest
        | other -> Error (Format.asprintf "expected Str, got %a" Sbx.Value.pp other))
      ~f:(function
        | Sbx.Value.Str key ->
            Sbx.Value.Str (Sesame_ml.Apikey.hash ~iterations:hash_iterations ~salt:hash_salt key)
        | other -> other)
      ()
  in
  (* The training points cross as one flat f64 run, interleaved
     [x0; y0; x1; y1; ...] (§7.2's direct copy): 16 bytes a point, and
     the guest trains straight off the array. Each point arrives as the
     (question, grade) cells Retrain's fold reads. *)
  let train =
    Region.Sandboxed.make ~app:app_name ~name:"ml::train" ?config:sbx_config ?quota:sbx_quota
      ~loc:19
      ~encode:(fun points ->
        let xy = Array.create_float (2 * List.length points) in
        List.iteri
          (fun i cells ->
            xy.(2 * i) <- float_of_int (Db.Value.to_int cells.(0));
            xy.((2 * i) + 1) <- Db.Value.to_float cells.(1))
          points;
        Sbx.Value.Floats xy)
      ~decode:(fun value ->
        match Sbx.Value.to_floats value with
        | Some weights -> Ok weights
        | None -> Error "expected a float vector")
      ~f:(function
        | Sbx.Value.Floats xy -> (
            match Sesame_ml.Linreg.train_interleaved xy with
            | Ok model ->
                Sbx.Value.floats [ model.Sesame_ml.Linreg.weights.(0); model.intercept ]
            | Error _ ->
                let grades = List.init (Array.length xy / 2) (fun p -> xy.((2 * p) + 1)) in
                Sbx.Value.floats [ 0.0; Sesame_ml.Stats.mean grades ])
        | _ -> invalid_arg "ml::train expects a flat f64 payload")
      ()
  in
  let* email_confirmation =
    Result.map_error Region.error_to_string
      (Region.Critical.make ~app:app_name ~program
         ~spec:
           (spec "submit::email_confirmation" [ "body" ]
              ~captures:[ { cap_var = "recipient"; mode = By_value } ]
              [
                Expr_stmt
                  (Call (Static "ws::email_confirmation", [ Var "body"; Var "recipient" ]));
              ])
         ~lockfile ~keystore
         ~f:(fun ~context body ->
           (* Reviewer obligation: the recipient must be the address the
              policy check approved in the context. *)
           let recipient = Option.value (Context.custom context "recipient") ~default:"" in
           Email.send ~recipient ~subject:"submission received" ~body)
         ())
  in
  let* export_employer =
    Result.map_error Region.error_to_string
      (Region.Critical.make ~app:app_name ~program
         ~spec:
           (spec "employer::export_row" [ "email"; "average" ]
              [
                Expr_stmt
                  (Call (Static "ws::export_employer_row", [ Var "email"; Var "average" ]));
              ])
         ~lockfile ~keystore
         ~f:(fun ~context:_ (email, average) ->
           Printf.sprintf "%s,%.2f" email average)
         ())
  in
  ignore db;
  Ok
    {
      fmt_confirmation;
      join_answers;
      mean_grades;
      predict;
      hash_key;
      train;
      email_confirmation;
      export_employer;
    }

let reviewer = "alice@school.edu"

(* The seven policy families, by their stable constructor names: durable
   mode registers these with the WAL's provenance registry so recovery
   can prove every journaled row's policy is still reconstructible. *)
let policy_family_names =
  [
    Answer_access_family.name;
    Grade_access_family.name;
    Employer_release_family.name;
    Ml_training_family.name;
    Demographics_family.name;
    K_anonymity_family.name;
    Api_key_family.name;
  ]

let attach_policies conn db =
  (* Column policy bindings (the db_policy annotations of Fig. 3). *)
  (* Policy instances are immutable, so each staged statement interns
     them per protected entity: a statement that wraps 10k rows builds
     one policy per (author, lecture) or student, not one per row, and
     [conjoin_distinct] dedups them by identity. The tables live in the
     schema half, one per staged statement or aggregate group, so the
     handler domains share no mutable state through them. *)
  Conn.attach_policy conn ~table:"answers" ~column:"answer" (fun schema ->
      let email = Db.Schema.column_index_exn schema "email"
      and lecture = Db.Schema.column_index_exn schema "lecture" in
      let interned : (string * int, Policy.t) Hashtbl.t = Hashtbl.create 16 in
      fun row ->
        let author = Db.Value.to_text row.(email) in
        let lecture = Db.Value.to_int row.(lecture) in
        match Hashtbl.find_opt interned (author, lecture) with
        | Some policy -> policy
        | None ->
            let policy =
              Answer_access.make { authors = Sset.singleton author; lecture; db }
            in
            Hashtbl.add interned (author, lecture) policy;
            policy);
  (* The grade binding's pushdown translation. At the training sink the
     conjoined GradeAccess ∧ MlTraining policy admits exactly the
     consenting students (GradeAccess passes for the admin initiating
     training), so one users scan compiles the whole per-row check into
     an indexable email ∈ {consenting} predicate. Every other context is
     declined and falls back to the post-hoc reference path. *)
  let grade_to_expr ctx =
    match Context.sink ctx with
    | Some "ml::train" -> (
        match principal ctx with
        | Some who when is_admin who -> (
            match
              Db.Database.exec db "SELECT email FROM users WHERE consent_ml = ?"
                ~params:[ Db.Value.Bool true ]
            with
            | Ok (Db.Database.Rows { rows; _ }) ->
                let consenting =
                  List.filter_map
                    (fun row ->
                      match row.(0) with Db.Value.Text _ as v -> Some v | _ -> None)
                    rows
                in
                Some (Db.Expr.In (Db.Expr.Col "email", consenting))
            | Ok (Db.Database.Affected _) | Error _ -> None)
        | Some _ | None -> None)
    | Some _ | None -> None
  in
  Conn.attach_policy conn ~to_expr:grade_to_expr ~table:"answers" ~column:"grade"
    (fun schema ->
      let email = Db.Schema.column_index_exn schema "email" in
      let interned : (string, Policy.t) Hashtbl.t = Hashtbl.create 16 in
      fun row ->
        let student = Db.Value.to_text row.(email) in
        match Hashtbl.find_opt interned student with
        | Some policy -> policy
        | None ->
            let policy =
              Policy.conjoin
                (Grade_access.make { student })
                (Ml_training.make { student; db })
            in
            Hashtbl.add interned student policy;
            policy);
  (* Static claim backing aggregate elision: every policy the grade
     binding produces is a conjunction over exactly these two leaf
     families. Dropped automatically if the binding is re-attached. *)
  Conn.certify_binding conn ~table:"answers" ~column:"grade"
    ~families:[ Grade_access_family.name; Ml_training_family.name ];
  Conn.attach_policy conn ~table:"users" ~column:"email" (fun schema ->
      let email = Db.Schema.column_index_exn schema "email"
      and consent = Db.Schema.column_index_exn schema "consent_employer" in
      fun row ->
        Employer_release.make
          {
            student = Db.Value.to_text row.(email);
            consent = Db.Value.to_bool row.(consent);
          });
  Conn.attach_policy conn ~table:"users" ~column:"gender" (fun schema ->
      let email = Db.Schema.column_index_exn schema "email" in
      fun row -> Demographics.make { student = Db.Value.to_text row.(email) });
  Conn.attach_policy conn ~table:"users" ~column:"apikey_hash" (fun schema ->
      let email = Db.Schema.column_index_exn schema "email" in
      fun row -> Api_key.make { owner = Db.Value.to_text row.(email) })

(* ------------------------------------------------------------------ *)
(* The static elision model: what each policy family's verdict depends
   on, when it is identically true, and what every context reaching the
   release sinks of the elidable endpoints is known to satisfy. The
   runtime never trusts these claims directly — installed certificates
   re-check their satisfying clause against each concrete context — so
   an over-claimed fact can only lose elisions, never change verdicts. *)

let elision_families : Elision.family list =
  [
    {
      family = Answer_access_family.name;
      inspects = [ ("answers", [ "email" ]); ("answers", [ "lecture" ]) ];
      satisfied_when = [ [ Elision.Principal_in admins ] ];
      pushable = false;
    };
    {
      family = Grade_access_family.name;
      inspects = [ ("answers", [ "email" ]) ];
      satisfied_when =
        [ [ Elision.Custom_eq ("role", "employer") ]; [ Elision.Principal_in admins ] ];
      pushable = true;
    };
    {
      family = Employer_release_family.name;
      inspects = [ ("users", [ "email" ]); ("users", [ "consent_employer" ]) ];
      satisfied_when =
        [ [ Elision.Principal_in admins; Elision.Custom_not ("role", "employer") ] ];
      pushable = false;
    };
    {
      family = Ml_training_family.name;
      inspects = [ ("users", [ "consent_ml" ]) ];
      satisfied_when = [ [ Elision.Sink_not "ml::train" ] ];
      pushable = true;
    };
    {
      family = Demographics_family.name;
      inspects = [ ("users", [ "gender" ]); ("users", [ "email" ]) ];
      satisfied_when =
        [ [ Elision.Principal_in admins; Elision.Custom_not ("purpose", "aggregate") ] ];
      pushable = false;
    };
    {
      (* The verdict depends only on instance data (k, members): never
         context-satisfiable and inspecting no stored field, so every
         K-anonymity check stays residual — aggregates are always
         counted, with or without elision. *)
      family = K_anonymity_family.name;
      inspects = [];
      satisfied_when = [];
      pushable = false;
    };
    {
      family = Api_key_family.name;
      inspects = [ ("users", [ "apikey_hash" ]); ("users", [ "email" ]) ];
      satisfied_when = [];
      pushable = false;
    };
  ]

let elision_sites : Elision.site list =
  [
    {
      (* Admin-gated before any data is touched; context carries no
         custom fields; releases only through Web.render. *)
      endpoint = "/aggregates";
      sinks = [ "http::render" ];
      facts =
        [
          Elision.Principal_in admins;
          Elision.Custom_not ("role", "employer");
          Elision.Custom_not ("purpose", "aggregate");
        ];
      region = None;
      row_params = [];
    };
    {
      (* Any authenticated user may call predict, so no context facts:
         redundancy here must come from the region. The released value
         is ml::predict's output, whose model parameter descends from
         answers rows. *)
      endpoint = "/predict";
      sinks = [ "http::respond" ];
      facts = [];
      region = Some predict_spec;
      row_params = [ ("model", "answers") ];
    };
    {
      endpoint = "/retrain";
      sinks = [ "ml::train" ];
      facts = [ Elision.Principal_in admins ];
      region = None;
      row_params = [];
    };
    {
      (* The employer export releases through a signed critical region
         whose check runs on the raw policy path; modeled to show the
         consent check is residual — it can never be elided. *)
      endpoint = "/employer";
      sinks = [ "region::critical" ];
      facts = [ Elision.Custom_eq ("role", "employer") ];
      region = None;
      row_params = [];
    };
  ]

let elision_certificates t =
  Elision.classify ~program:t.program ~families:elision_families ~sites:elision_sites ()

let install_plan t =
  Enforce.Plan.install ~families:elision_families ~sites:elision_sites (elision_certificates t)

let assemble ?hardening ~conn ~db ~k_anonymity ~next_answer_id () =
  let keystore = Sign.Keystore.create () in
  Sign.Keystore.register keystore ~reviewer ~secret:"alice-reviewer-secret";
  let program = build_program () in
  let* regions = make_regions ?hardening program keystore db in
  (* The team lead reviews and signs the critical regions before release. *)
  let* () =
    match Region.Critical.sign regions.email_confirmation ~reviewer ~at:1000 with
    | Ok () -> Ok ()
    | Error e -> region_error e
  in
  let* () =
    match Region.Critical.sign regions.export_employer ~reviewer ~at:1000 with
    | Ok () -> Ok ()
    | Error e -> region_error e
  in
  let t =
    {
      conn;
      db;
      keystore;
      program;
      k = k_anonymity;
      regions;
      hardening;
      model = None;
      next_answer_id;
      routes = Http.Router.create ();
    }
  in
  install_plan t;
  Ok t

(* Equality predicates the endpoints and policy families issue on every
   request. Secondary indexes exist only where declared, so building them
   here keeps every instance, cold or warm, off the full-scan path. *)
let index_hot_columns db =
  let* () = Db.Database.ensure_index db ~table:"answers" ~column:"email" in
  let* () = Db.Database.ensure_index db ~table:"answers" ~column:"lecture" in
  let* () = Db.Database.ensure_index db ~table:"users" ~column:"email" in
  Db.Database.ensure_index db ~table:"discussion_leaders" ~column:"lecture"

let answer_count t =
  match Db.Database.table t.db "answers" with
  | Some tbl -> Db.Table.length tbl
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Seeding (the Fig. 8 workload: a medium-sized course). *)

let seed t ~students ~questions =
  Websubmit_schema.seed t.db ~students ~questions ~next_id:(fun () ->
      let id = t.next_answer_id in
      t.next_answer_id <- id + 1;
      id)

(* ------------------------------------------------------------------ *)
(* Endpoints *)

let bad_request msg = Http.Response.error Http.Status.Bad_request msg

let web_error e = Web.error_response e

(* One shared rendering for connector errors (redaction lives there). *)
let conn_error = Conn.error_response

(* The Sesame authentication guard (framework-level, like Fig. 2's
   [student: Student] cookie guard): resolves the session cookie to a
   known user. Trusted code. *)
let authenticate t request =
  match Http.Request.cookie request "user" with
  | None -> None
  | Some email -> (
      match
        Db.Database.exec t.db "SELECT email FROM users WHERE email = ?"
          ~params:[ Db.Value.Text email ]
      with
      | Ok (Db.Database.Rows { rows = [ _ ]; _ }) -> Some email
      | _ -> if is_admin email || email = "leader@school.edu" then Some email else None)

let require_auth t request k =
  match authenticate t request with
  | Some user -> k user
  | None -> Http.Response.error Http.Status.Unauthorized "not signed in"

(* POST /register: body form [email], [apikey], [consent]. The API key is
   hashed inside the sandboxed region ("Register Users", Fig. 9a). *)
let register_user t request =
  match (Http.Request.form_param request "email", Http.Request.form_param request "apikey")
  with
  | Some email, Some apikey -> (
      let consent = Http.Request.form_param request "consent" = Some "true" in
      let gender = Option.value (Http.Request.form_param request "gender") ~default:"" in
      let key_pcon =
        C.Pcon.Internal.make (Api_key.make { owner = email }) apikey
      in
      match Region.Sandboxed.run t.regions.hash_key key_pcon with
      | Error e -> Region.error_response e
      | Ok hash_pcon -> (
          let context = Web.context_for request ~user:email () in
          match
            Conn.insert t.conn ~context ~table:"users"
              [
                ("email", Pcon.wrap_no_policy (Db.Value.Text email));
                ( "apikey_hash",
                  C.Pcon.Internal.map (fun h -> Db.Value.Text h) hash_pcon );
                ("consent_employer", Pcon.wrap_no_policy (Db.Value.Bool consent));
                ("consent_ml", Pcon.wrap_no_policy (Db.Value.Bool consent));
                ("gender", Pcon.wrap_no_policy (Db.Value.Text gender));
              ]
          with
          | Ok () -> Http.Response.text ~status:Http.Status.Created "registered"
          | Error e -> conn_error e))
  | _ -> bad_request "email and apikey are required"

(* POST /submit/<lecture>/<question>: Fig. 1's endpoint. *)
let submit_answer t request =
  require_auth t request (fun user ->
      let answer_policy =
        Answer_access.make
          {
            authors = Sset.singleton user;
            lecture =
              int_of_string_opt (Option.value (Http.Request.path_param request "lecture") ~default:"1")
              |> Option.value ~default:1;
            db = t.db;
          }
      in
      match Web.form_param request "answer" ~policy:(fun _ -> answer_policy) with
      | None -> bad_request "answer is required"
      | Some answer_pcon -> (
          let lecture =
            Option.value (Http.Request.path_param request "lecture") ~default:"1"
          in
          let question =
            Option.value (Http.Request.path_param request "question") ~default:"0"
          in
          let id = t.next_answer_id in
          t.next_answer_id <- id + 1;
          let context = Web.context_for request ~user () in
          match
            Conn.insert t.conn ~context ~table:"answers"
              [
                ("id", Pcon.wrap_no_policy (Db.Value.Int id));
                ("email", Pcon.wrap_no_policy (Db.Value.Text user));
                ( "lecture",
                  Pcon.wrap_no_policy (Db.Value.Int (int_of_string lecture)) );
                ( "question",
                  Pcon.wrap_no_policy (Db.Value.Int (int_of_string question)) );
                ( "answer",
                  C.Pcon.Internal.map (fun a -> Db.Value.Text a) answer_pcon );
                ("grade", Pcon.wrap_no_policy Db.Value.Null);
              ]
          with
          | Error e -> conn_error e
          | Ok () -> (
              (* Fig. 1b lines 10-21: format in a VR, email via the CR. *)
              let body = Region.Verified.run t.regions.fmt_confirmation answer_pcon in
              let cr_context =
                Context.untrusted ~endpoint:request.Http.Request.path ~user
                  ~custom:[ ("recipient", user) ]
                  ()
              in
              match
                Region.Critical.run t.regions.email_confirmation ~context:cr_context body
              with
              | Ok () -> Http.Response.text ~status:Http.Status.Created "submitted"
              | Error e -> Region.error_response e)))

(* GET /view/<answer_id>: Fig. 2's endpoint. *)
let view_answer_template =
  Http.Template.compile_exn
    "<html><body><h1>Answer</h1><p>{{answer}}</p></body></html>"

let view_answer t request =
  require_auth t request (fun user ->
      match Http.Request.path_param request "answer_id" with
      | None -> bad_request "answer_id is required"
      | Some id -> (
          let context = Web.context_for request ~user () in
          match
            Conn.query t.conn ~context
              "SELECT * FROM answers WHERE id = ? AND email = ?"
              ~params:
                [
                  Pcon.wrap_no_policy (Db.Value.Int (int_of_string id));
                  Pcon.wrap_no_policy (Db.Value.Text user);
                ]
          with
          | Error e -> conn_error e
          | Ok [] -> Http.Response.error Http.Status.Not_found "no such answer"
          | Ok (row :: _) -> (
              match
                Web.render ~context view_answer_template
                  [ ("answer", Web.Sensitive (C.Pcon_row.text row "answer")) ]
              with
              | Ok response -> response
              | Error e -> web_error e)))

(* GET /answers/<lecture>[?compose=true]: the staff view behind Fig. 9c.
   Without composition each answer's policy is checked separately (one
   discussion-leader query per answer); with composition the same-lecture
   policies join and a single check suffices. *)
let answers_template =
  Http.Template.compile_exn "<html><body><pre>{{answers}}</pre></body></html>"

let answers_list_template =
  Http.Template.compile_exn
    "<html><body><pre>{{#answers}}{{line}}\n{{/answers}}</pre></body></html>"

let view_answers t ~compose request =
  require_auth t request (fun user ->
      let lecture =
        Option.value (Http.Request.path_param request "lecture") ~default:"1"
      in
      let context = Web.context_for request ~user () in
      match
        Conn.query t.conn ~context "SELECT * FROM answers WHERE lecture = ?"
          ~params:[ Pcon.wrap_no_policy (Db.Value.Int (int_of_string lecture)) ]
      with
      | Error e -> conn_error e
      | Ok rows ->
          let answers = List.map (fun row -> C.Pcon_row.text row "answer") rows in
          if compose then begin
            (* Fold: conjunction joins same-lecture policies into one. *)
            let joined = Region.Verified.run_list t.regions.join_answers answers in
            match
              Web.render ~context answers_template [ ("answers", Web.Sensitive joined) ]
            with
            | Ok response -> response
            | Error e -> web_error e
          end
          else begin
            let bindings = List.map (fun a -> [ ("line", a) ]) answers in
            match
              Web.render ~context answers_list_template
                [ ("answers", Web.Sensitive_list bindings) ]
            with
            | Ok response -> response
            | Error e -> web_error e
          end)

(* GET /aggregates: administrators see per-lecture average grades,
   k-anonymized ("Get Aggregates"). *)
let aggregates_template =
  Http.Template.compile_exn
    "<html><body>{{#groups}}<div>lecture {{lecture}}: {{avg}}</div>{{/groups}}</body></html>"

let get_aggregates t request =
  require_auth t request (fun user ->
      if not (is_admin user) then
        Http.Response.error Http.Status.Forbidden "administrators only"
      else
        let context = Web.context_for request ~user () in
        match
          Conn.query_agg t.conn ~context
            "SELECT AVG(grade), COUNT(grade) FROM answers GROUP BY lecture" ~params:[]
        with
        | Error e -> conn_error e
        | Ok rows -> (
            let groups =
              List.map
                (fun row ->
                  let lecture = List.assoc "lecture" row in
                  let avg = List.assoc "AVG(grade)" row in
                  let members =
                    match C.Pcon.Internal.unwrap (List.assoc "COUNT(grade)" row) with
                    | Db.Value.Int n -> n
                    | _ -> 0
                  in
                  (* Aggregates released only when ≥ k students contribute. *)
                  let kanon = K_anonymity.make { k = t.k; members } in
                  let avg = Pcon.with_policy avg kanon in
                  [
                    ( "lecture",
                      C.Pcon.Internal.map Db.Value.to_string lecture );
                    ("avg", C.Pcon.Internal.map Db.Value.to_string avg);
                  ])
                rows
            in
            match
              Web.render ~context aggregates_template
                [ ("groups", Web.Sensitive_list groups) ]
            with
            | Ok response -> response
            | Error e -> web_error e))

(* GET /employer: averages + emails of consenting students ("Get Employer
   Info"). The caller is an employer; consent is enforced by
   Employer_release, and the released rows leave through the signed
   export CR. *)
let get_employer_info t request =
  let context =
    Web.context_for request ~user:"recruiter@corp.com" ~custom:[ ("role", "employer") ] ()
  in
  match
    Conn.query t.conn ~context "SELECT * FROM users WHERE consent_employer = ?"
      ~params:[ Pcon.wrap_no_policy (Db.Value.Bool true) ]
  with
  | Error e -> conn_error e
  | Ok users -> (
      let export_rows =
        List.filter_map
          (fun row ->
            (* The email cell goes in as the policy-checked parameter.
               The statement drops NULL grades, so a student with no
               grade left reads no row and is not released. *)
            match
              Conn.query_fold t.conn ~context
                "SELECT * FROM answers WHERE email = ? AND grade IS NOT NULL"
                ~params:[ C.Pcon_row.get row "email" ] ~columns:[ "grade" ]
            with
            | Error _ | Ok { rows = 0; _ } -> None
            | Ok { payload = grades; _ } ->
                let avg = Region.Verified.run t.regions.mean_grades grades in
                Some (Pcon.pair (C.Pcon_row.text row "email") avg))
          users
      in
      let cr_context =
        Context.untrusted ~endpoint:request.Http.Request.path ~custom:[ ("role", "employer") ] ()
      in
      let lines =
        List.filter_map
          (fun pair ->
            match
              Region.Critical.run t.regions.export_employer ~context:cr_context pair
            with
            | Ok line -> Some line
            | Error _ -> None)
          export_rows
      in
      Http.Response.text (String.concat "\n" lines))

(* POST /retrain: train the grade model on consenting students' grades in
   the training sandbox ("Retrain Model", Fig. 9b). The connector folds
   the statement's (question, grade) points straight into one container
   carrying their policies' conjunction, with no per-cell container, and
   the region copies them in as one flat f64 run. *)
let retrain_model t request =
  require_auth t request (fun user ->
      if not (is_admin user) then
        Http.Response.error Http.Status.Forbidden "administrators only"
      else
        let context =
          Context.with_sink (Web.context_for request ~user ()) "ml::train"
        in
        match
          (* "Fetch everything I may train on": the connector keeps only
             rows whose grade policy admits this context. When pushdown
             is on, the grade binding's translation compiles the consent
             check into an email IN (consenting) predicate; the answers
             table's email index turns that list into the union of the
             consenting students' buckets, so only their rows are read
             and no row is checked. Otherwise the reference path scans
             every graded answer and checks each row's grade policy
             post-hoc. Either way the payload carries the grade binding's
             per-student policy instances. *)
          Conn.query_fold t.conn ~context ~on:"grade"
            "SELECT * FROM answers WHERE grade IS NOT NULL" ~params:[]
            ~columns:[ "question"; "grade" ]
        with
        | Error e -> conn_error e
        | Ok { rows = 0; _ } -> bad_request "no consenting training data"
        | Ok { payload = points; _ } -> (
            match Region.Sandboxed.run t.regions.train points with
            | Error e -> Region.error_response e
            | Ok weights_pcon -> (
                match C.Pcon.Internal.unwrap weights_pcon with
                | [ w; b ] ->
                    t.model <- Some (C.Pcon.Internal.map (fun _ -> (w, b)) weights_pcon);
                    Http.Response.text "model retrained"
                | _ -> Http.Response.error Http.Status.Internal_error "bad model shape")))

(* GET /predict/<question>: model inference in a verified region ("Predict
   Grades"). *)
let predict_grades t request =
  require_auth t request (fun user ->
      match t.model with
      | None -> Http.Response.error Http.Status.Not_found "model not trained"
      | Some model -> (
          let question =
            Http.Request.path_param request "question"
            |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:0
          in
          let x = Pcon.wrap_no_policy (float_of_int question) in
          let prediction = Region.Verified.run t.regions.predict (Pcon.pair model x) in
          let prediction = C.Pcon.Internal.map (fun p -> Printf.sprintf "%.2f" p) prediction in
          let context = Web.context_for request ~user () in
          match Web.respond_text ~context prediction with
          | Ok response -> response
          | Error e -> web_error e))

(* POST /consent: the user's consent choice (§9). Consent gates both the
   employer release and ML training. Every later check reads the updated
   row. *)
let update_consent t request =
  require_auth t request (fun user ->
      match Http.Request.form_param request "consent" with
      | None -> bad_request "consent=true|false is required"
      | Some value -> (
          let consent = value = "true" in
          let context = Web.context_for request ~user () in
          match
            Conn.execute t.conn ~context
              "UPDATE users SET consent_employer = ?, consent_ml = ? WHERE email = ?"
              ~params:
                [
                  Pcon.wrap_no_policy (Db.Value.Bool consent);
                  Pcon.wrap_no_policy (Db.Value.Bool consent);
                  Pcon.wrap_no_policy (Db.Value.Text user);
                ]
          with
          | Error e -> conn_error e
          | Ok 0 -> Http.Response.error Http.Status.Not_found "no such user"
          | Ok _ -> Http.Response.text "consent updated"))

(* ------------------------------------------------------------------ *)

let add_routes t router =
  Http.Router.post router "/register" (register_user t);
  Http.Router.post router "/consent" (update_consent t);
  Http.Router.post router "/submit/<lecture>/<question>" (submit_answer t);
  Http.Router.get router "/view/<answer_id>" (view_answer t);
  Http.Router.get router "/answers/<lecture>" (fun request ->
      let compose = Http.Request.query_param request "compose" = Some "true" in
      view_answers t ~compose request);
  Http.Router.get router "/aggregates" (get_aggregates t);
  Http.Router.get router "/employer" (get_employer_info t);
  Http.Router.post router "/retrain" (retrain_model t);
  Http.Router.get router "/predict/<question>" (predict_grades t)

let router t =
  let router = Http.Router.create () in
  add_routes t router;
  router

let handle t request = Http.Router.dispatch t.routes request

let create ?(query_cost_ns = 0) ?(k_anonymity = 5) ?hardening () =
  let db = Db.Database.create ~query_cost_ns () in
  let* () = Db.Database.create_table db Websubmit_schema.users in
  let* () = Db.Database.create_table db Websubmit_schema.answers in
  let* () = Db.Database.create_table db Websubmit_schema.leaders in
  let* () = index_hot_columns db in
  let conn = Conn.create db in
  attach_policies conn db;
  let* t = assemble ?hardening ~conn ~db ~k_anonymity ~next_answer_id:1 () in
  (* Built once: dispatch only reads the table, so handler domains share it. *)
  add_routes t t.routes;
  Ok t

let create_durable ?(query_cost_ns = 0) ?(k_anonymity = 5) ?durable_config ?hardening ~data_dir
    () =
  (* Family registration must precede recovery: replay refuses any
     journaled constructor the registry does not know. *)
  List.iter Sesame_wal.Provenance.register policy_family_names;
  match Conn.create_durable ?config:durable_config ~dir:data_dir () with
  | Error e -> Error (Sesame_wal.Durable.error_message e)
  | Ok (conn, store) ->
      let db = Conn.database conn in
      Db.Database.set_query_cost_ns db query_cost_ns;
      (* Recovery may already have rebuilt the tables from the log. *)
      let ensure schema =
        match Db.Database.table db (Db.Schema.name schema) with
        | Some _ -> Ok ()
        | None -> Db.Database.create_table db schema
      in
      let* () = ensure Websubmit_schema.users in
      let* () = ensure Websubmit_schema.answers in
      let* () = ensure Websubmit_schema.leaders in
      let* () = index_hot_columns db in
      attach_policies conn db;
      let next_answer_id =
        match Db.Database.table db "answers" with
        | None -> 1
        | Some tbl ->
            let schema = Db.Table.schema tbl in
            1
            + Db.Table.fold tbl ~init:0 ~f:(fun acc row ->
                  match Db.Row.get schema row "id" with
                  | Db.Value.Int i -> max acc i
                  | _ -> acc)
      in
      let* t = assemble ?hardening ~conn ~db ~k_anonymity ~next_answer_id () in
      add_routes t t.routes;
      Ok (t, store)
