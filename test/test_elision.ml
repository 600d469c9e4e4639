(* The check-elision pass and the runtime plan compiled from it:
   static classification + certificate replay, differential
   byte-identity (elide/pushdown on/off), the rebinding regression
   (re-binding a policy keeps every verdict and drops the binding's
   certification, so the residual check runs), and the Enforce stats
   counters and plan size. *)

module Http = Sesame_http
module Db = Sesame_db
module Apps = Sesame_apps
module C = Sesame_core
module Scrut = Sesame_scrutinizer
module Corpus = Sesame_corpus
module Elision = Scrut.Elision

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let req ?(cookies = "") ?(body = "") meth target =
  Http.Request.make
    ~headers:
      (Http.Headers.of_list
         [ ("Cookie", cookies); ("Content-Type", "application/x-www-form-urlencoded") ])
    ~body meth target

let status r = Http.Status.to_int r.Http.Response.status
let body r = r.Http.Response.body
let as_admin = "user=admin@school.edu"
let as_student i = "user=student" ^ string_of_int i ^ "@school.edu"

let websubmit () =
  let app = Result.get_ok (Apps.Websubmit.create ()) in
  (match Apps.Websubmit.seed app ~students:12 ~questions:3 with
  | Ok () -> ()
  | Error m -> failwith m);
  Apps.Email.clear_outbox ();
  app

(* Run [f] under explicit enforcement flags, restoring the previous
   configuration afterwards even if the body raises. *)
let with_flags ~elide ~push f =
  let se = C.Enforce.elision () in
  let sp = C.Enforce.pushdown_enabled () in
  C.Enforce.set_elision elide;
  C.Enforce.set_pushdown push;
  Fun.protect
    ~finally:(fun () ->
      C.Enforce.set_elision se;
      C.Enforce.set_pushdown sp)
    f

let cert_for certs endpoint sink family =
  match
    List.find_opt
      (fun (c : Elision.certificate) ->
        String.equal c.cert_endpoint endpoint
        && String.equal c.cert_sink sink
        && String.equal c.cert_family family)
      certs
  with
  | Some c -> c
  | None -> Alcotest.fail (Printf.sprintf "no certificate for %s %s %s" endpoint sink family)

let verdict_of certs endpoint sink family =
  Elision.verdict_name (cert_for certs endpoint sink family).cert_verdict

(* ------------------------------------------------------------------ *)
(* Static classification over the live websubmit program. *)

let classification_tests =
  [
    test "aggregates: contextual families are redundant, k-anonymity residual" (fun () ->
        let app = websubmit () in
        let certs = Apps.Websubmit.elision_certificates app in
        check_string "grade access" "redundant"
          (verdict_of certs "/aggregates" "http::render" "websubmit::grade-access");
        check_string "answer access" "redundant"
          (verdict_of certs "/aggregates" "http::render" "websubmit::answer-access");
        check_string "k-anonymity" "residual"
          (verdict_of certs "/aggregates" "http::render" "websubmit::k-anonymity");
        (* The redundancy must come from the context facts, not the
           (absent) region. *)
        match (cert_for certs "/aggregates" "http::render" "websubmit::grade-access").cert_verdict with
        | Elision.Redundant (Elision.Context_satisfies _) -> ()
        | _ -> Alcotest.fail "expected a context-satisfaction proof");
    test "predict: grade access is field-disjoint via the region" (fun () ->
        let app = websubmit () in
        let certs = Apps.Websubmit.elision_certificates app in
        match (cert_for certs "/predict" "http::respond" "websubmit::grade-access").cert_verdict with
        | Elision.Redundant (Elision.Field_disjoint { path; _ }) ->
            (* The proof must name the inspected place the region never
               releases. *)
            check_bool "path names email" true (path = [ "email" ])
        | v -> Alcotest.fail ("expected field-disjoint, got " ^ Elision.verdict_name v));
    test "retrain: ml-training is pushable, not redundant" (fun () ->
        let app = websubmit () in
        let certs = Apps.Websubmit.elision_certificates app in
        check_string "ml training" "pushable"
          (verdict_of certs "/retrain" "ml::train" "websubmit::ml-training"));
    test "employer: the consent check can never be elided" (fun () ->
        let app = websubmit () in
        let certs = Apps.Websubmit.elision_certificates app in
        check_string "employer release" "residual"
          (verdict_of certs "/employer" "region::critical" "websubmit::employer-release"));
    test "every corpus certificate replays byte-for-byte" (fun () ->
        let program = Corpus.App_corpus.program Corpus.App_corpus.Small in
        List.iter
          (fun (m : Corpus.Elision_corpus.model) ->
            List.iter
              (fun (cert : Elision.certificate) ->
                check_bool
                  (Printf.sprintf "replay %s %s %s" cert.cert_endpoint cert.cert_sink
                     cert.cert_family)
                  true
                  (Elision.replay ~program ~families:m.families ~sites:m.sites cert))
              (Corpus.Elision_corpus.classify m))
          (Corpus.Elision_corpus.models ()));
    test "a forged verdict fails replay" (fun () ->
        let program = Corpus.App_corpus.program Corpus.App_corpus.Small in
        let m = Option.get (Corpus.Elision_corpus.model "websubmit") in
        let certs = Corpus.Elision_corpus.classify m in
        let redundant =
          List.find
            (fun (c : Elision.certificate) ->
              match c.cert_verdict with Elision.Redundant _ -> true | _ -> false)
            certs
        in
        let forged = { redundant with Elision.cert_verdict = Elision.Residual "forged" } in
        check_bool "refuted" false
          (Elision.replay ~program ~families:m.families ~sites:m.sites forged));
    test "entails is sound on the atom vocabulary" (fun () ->
        let open Elision in
        check_bool "subset principal" true
          (entails [ Principal_in [ "a@x" ] ] (Principal_in [ "a@x"; "b@x" ]));
        check_bool "disjoint principal" false
          (entails [ Principal_in [ "a@x" ] ] (Principal_in [ "b@x" ]));
        check_bool "custom eq reflexive" true
          (entails [ Custom_eq ("role", "employer") ] (Custom_eq ("role", "employer")));
        check_bool "eq refutes not" false
          (entails [ Custom_eq ("role", "employer") ] (Custom_not ("role", "employer"))));
  ]

(* ------------------------------------------------------------------ *)
(* The corpus models: per-app classification over the Fig. 10 corpus. *)

let corpus_tests =
  [
    test "youchat: instance-data policies all classify residual" (fun () ->
        let m = Option.get (Corpus.Elision_corpus.model "youchat") in
        let certs = Corpus.Elision_corpus.classify m in
        check_bool "non-empty" true (certs <> []);
        List.iter
          (fun (c : Elision.certificate) ->
            check_string "residual" "residual" (Elision.verdict_name c.cert_verdict))
          certs);
    test "voltron: firebase auth is redundant at the read-query sink" (fun () ->
        let m = Option.get (Corpus.Elision_corpus.model "voltron") in
        let certs = Corpus.Elision_corpus.classify m in
        check_string "firebase" "redundant"
          (verdict_of certs "/dashboard" "db::query" "voltron::firebase-auth"));
    test "corpus websubmit: predict is field-disjoint with no context facts" (fun () ->
        let m = Option.get (Corpus.Elision_corpus.model "websubmit") in
        let certs = Corpus.Elision_corpus.classify m in
        match (cert_for certs "/predict" "http::respond" "websubmit::grade-access").cert_verdict with
        | Elision.Redundant (Elision.Field_disjoint _) -> ()
        | v -> Alcotest.fail ("expected field-disjoint, got " ^ Elision.verdict_name v));
  ]

(* ------------------------------------------------------------------ *)
(* Property 2, by execution: a field-disjointness certificate claims the
   site's region never releases the places its family inspects. Two runs
   of the region in the reference interpreter ([Ir_interp]) that differ
   only at one such place must return the same value and produce the
   same observable events. *)

module Interp = Ir_interp

(* The field paths the region body reads from each variable. *)
let paths_read (spec : Scrut.Spec.t) =
  let acc = ref [] in
  let rec expr (e : Scrut.Ir.expr) =
    (match Scrut.Ir.place_of_expr e with
    | Some pl when pl.Scrut.Ir.path <> [] -> acc := (pl.base, pl.path) :: !acc
    | _ -> ());
    match e with
    | Field (e, _) | Unop (_, e) | Deref e -> expr e
    | Index (a, b) | Binop (_, a, b) -> expr a; expr b
    | Tuple es | Vec es | Call (_, es) -> List.iter expr es
    | Unit | Int_lit _ | Float_lit _ | Str_lit _ | Bool_lit _ | Var _ | Global _ | Ref _
    | Ref_mut _ ->
        ()
  and stmt (s : Scrut.Ir.stmt) =
    match s with
    | Let (_, e) | Assign (_, e) | Unsafe_write (_, e) | Expr_stmt e | Return (Some e) -> expr e
    | Return None -> ()
    | Opaque_unsafe es -> List.iter expr es
    | If (c, t, e) -> expr c; List.iter stmt t; List.iter stmt e
    | While (c, b) | For (_, c, b) -> expr c; List.iter stmt b
  in
  List.iter stmt spec.Scrut.Spec.body;
  !acc

(* Set [path] in [v] to [leaf], making records along the way. *)
let rec set_path v path leaf =
  match path with
  | [] -> leaf
  | f :: rest ->
      let fields = match v with Interp.Record fs -> fs | _ -> [] in
      let cur = Option.value (List.assoc_opt f fields) ~default:Interp.Unit in
      Interp.Record
        (List.sort compare ((f, set_path cur rest leaf) :: List.remove_assoc f fields))

let certified_places_are_not_released app_program certs (sites : Elision.site list)
    (families : Elision.family list) =
  let checked = ref 0 in
  List.iter
    (fun (c : Elision.certificate) ->
      match c.cert_verdict with
      | Elision.Redundant (Elision.Field_disjoint _) -> (
          let site = List.find (fun (s : Elision.site) -> s.endpoint = c.cert_endpoint) sites in
          let fam = List.find (fun (f : Elision.family) -> f.family = c.cert_family) families in
          match site.region with
          | None -> ()
          | Some spec ->
              (* A base argument per parameter: a record holding every
                 path the body reads from it, or a number. *)
              let read = paths_read spec in
              let base =
                List.mapi
                  (fun i p ->
                    List.fold_left
                      (fun v (b, path) ->
                        if b = p then set_path v path (Interp.Float (float_of_int (i + 2)))
                        else v)
                      (Interp.Float (float_of_int (i + 2)))
                      read)
                  spec.Scrut.Spec.params
              in
              let places =
                List.concat_map
                  (fun (table, path) ->
                    List.filter_map
                      (fun (param, ptable) -> if ptable = table then Some (param, path) else None)
                      site.row_params)
                  fam.inspects
              in
              List.iter
                (fun (param, path) ->
                  let perturbed =
                    List.map2
                      (fun p v -> if p = param then set_path v path (Interp.Str "perturbed") else v)
                      spec.Scrut.Spec.params base
                  in
                  let run args = Interp.run app_program spec ~args ~captures:[] in
                  let a = run base and b = run perturbed in
                  let what =
                    Printf.sprintf "%s %s: %s.%s" c.cert_endpoint c.cert_family param
                      (String.concat "." path)
                  in
                  if a.Interp.result <> b.Interp.result || a.Interp.events <> b.Interp.events then
                    Alcotest.failf "%s is released:@.%a@.vs@.%a" what Interp.pp_outcome a
                      Interp.pp_outcome b;
                  incr checked)
                places)
      | _ -> ())
    certs;
  !checked

let execution_tests =
  [
    test "websubmit field-disjoint certificates hold under execution" (fun () ->
        let app = websubmit () in
        let checked =
          certified_places_are_not_released (Apps.Websubmit.program app)
            (Apps.Websubmit.elision_certificates app)
            Apps.Websubmit.elision_sites Apps.Websubmit.elision_families
        in
        check_bool "some certified place was perturbed" true (checked > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Runtime: stats counters and the installed plan. *)

let retrain app = Apps.Websubmit.retrain_model app (req ~cookies:as_admin Http.Meth.POST "/retrain")
let predict app = Apps.Websubmit.predict_grades app (req ~cookies:as_admin Http.Meth.GET "/predict/3")

let stats_tests =
  [
    test "predict runs fully elided for admins" (fun () ->
        let app = websubmit () in
        check_int "retrain" 200 (status (retrain app));
        C.Enforce.reset_stats ();
        check_int "predict" 200 (status (predict app));
        let st = C.Enforce.stats () in
        check_bool "elided" true (st.C.Enforce.elisions > 0);
        check_int "no checks ran" 0 st.C.Enforce.misses);
    test "students are not covered by the guarded certificates" (fun () ->
        let app = websubmit () in
        check_int "retrain" 200 (status (retrain app));
        C.Enforce.reset_stats ();
        let r =
          Apps.Websubmit.predict_grades app
            (req ~cookies:(as_student 0) Http.Meth.GET "/predict/3")
        in
        check_int "denied" 403 (status r);
        let st = C.Enforce.stats () in
        (* The guard rejects the context, so the residual check must
           have actually evaluated policies. *)
        check_bool "residual ran" true (st.C.Enforce.misses > 0));
    test "retrain pushdown increments the counter" (fun () ->
        let app = websubmit () in
        C.Enforce.reset_stats ();
        let r = retrain app in
        check_int "200" 200 (status r);
        check_string "body" "model retrained" (body r);
        check_bool "pushed" true ((C.Enforce.stats ()).C.Enforce.pushdowns > 0));
    test "installing the same model twice adds nothing" (fun () ->
        C.Enforce.Plan.clear ();
        let (_ : Apps.Websubmit.t) = websubmit () in
        let once = C.Enforce.Plan.size () in
        let (_ : Apps.Websubmit.t) = websubmit () in
        (* One entry per Redundant certificate that carries a clause. *)
        check_int "one instance's entries" 14 once;
        check_int "a second instance adds nothing" once (C.Enforce.Plan.size ()));
    test "reset_stats zeroes every counter" (fun () ->
        let app = websubmit () in
        check_int "retrain" 200 (status (retrain app));
        check_int "predict" 200 (status (predict app));
        C.Enforce.reset_stats ();
        let st = C.Enforce.stats () in
        check_int "hits" 0 st.C.Enforce.hits;
        check_int "misses" 0 st.C.Enforce.misses;
        check_int "elisions" 0 st.C.Enforce.elisions;
        check_int "pushdowns" 0 st.C.Enforce.pushdowns);
  ]

(* ------------------------------------------------------------------ *)
(* Pushdown vs reference: query_filtered must return byte-identical
   rows either way. *)

let pushdown_tests =
  [
    test "query_filtered rows are identical with pushdown on and off" (fun () ->
        let app = websubmit () in
        let conn = Apps.Websubmit.conn app in
        let context =
          C.Context.with_sink
            (C.Context.Internal.trusted ~endpoint:"/retrain" ~user:"admin@school.edu"
               ~source:"test" ())
            "ml::train"
        in
        let run () =
          match
            C.Sesame_conn.query_filtered conn ~context ~on:"grade"
              "SELECT * FROM answers WHERE grade IS NOT NULL" ~params:[]
          with
          | Ok rows -> rows
          | Error _ -> Alcotest.fail "query_filtered failed"
        in
        let reference = with_flags ~elide:false ~push:false run in
        C.Enforce.reset_stats ();
        let pushed = with_flags ~elide:false ~push:true run in
        check_bool "pushdown fired" true ((C.Enforce.stats ()).C.Enforce.pushdowns > 0);
        check_bool "some consenting rows" true (reference <> []);
        check_int "row count" (List.length reference) (List.length pushed);
        List.iter2
          (fun a b ->
            List.iter
              (fun col ->
                let cell r = C.Pcon.Internal.unwrap (C.Pcon_row.get r col) in
                check_bool (col ^ " equal") true (Db.Value.equal (cell a) (cell b)))
              [ "id"; "email"; "lecture"; "question"; "grade" ])
          reference pushed);
  ]

(* ------------------------------------------------------------------ *)
(* Rebinding: re-attaching a policy to answers.grade must keep every
   verdict. Plan certificates are guarded by their families' own
   clauses, so they stay true; the one claim about the binding, its
   certification (the leaf families query_agg trusts), is dropped, so
   the aggregates' group conjunctions are built and checked again. *)

module Lockdown_family = struct
  type s = unit

  let name = "test::lockdown"
  let check () ctx = C.Context.user ctx = Some "admin@school.edu"
  let join = None
  let no_folding = false
  let describe () = "Lockdown"
end

module Lockdown = C.Policy.Make (Lockdown_family)

let stale_tests =
  [
    test "rebinding drops certificates; the residual check runs" (fun () ->
        let app = websubmit () in
        (* A plan holding exactly this instance's certificates. *)
        C.Enforce.Plan.clear ();
        Apps.Websubmit.install_plan app;
        check_bool "plan installed" true (C.Enforce.Plan.size () > 0);
        let aggregates () =
          Apps.Websubmit.get_aggregates app (req ~cookies:as_admin Http.Meth.GET "/aggregates")
        in
        let before = aggregates () in
        check_int "aggregates" 200 (status before);
        check_int "retrain" 200 (status (retrain app));
        C.Enforce.reset_stats ();
        check_int "predict (elided)" 200 (status (predict app));
        let st = C.Enforce.stats () in
        check_bool "fully elided before rebinding" true
          (st.C.Enforce.elisions > 0 && st.C.Enforce.misses = 0);
        C.Sesame_conn.attach_policy (Apps.Websubmit.conn app) ~table:"answers"
          ~column:"grade"
          (fun _schema _row -> Lockdown.make ());
        C.Enforce.reset_stats ();
        let after = aggregates () in
        check_int "aggregates after rebinding" 200 (status after);
        check_string "aggregates body" (body before) (body after);
        let st = C.Enforce.stats () in
        check_int "certified aggregate path off" 0 st.C.Enforce.elisions;
        check_bool "group conjunctions checked" true (st.C.Enforce.misses > 0);
        (* The model trained before the rebinding still carries the old
           binding's leaves. *)
        check_int "predict (old model)" 200 (status (predict app));
        check_int "retrain after rebinding" 200 (status (retrain app));
        C.Enforce.reset_stats ();
        check_int "predict (residual)" 200 (status (predict app));
        check_bool "residual check ran" true ((C.Enforce.stats ()).C.Enforce.misses > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Differential harness: for random principals and endpoints, verdicts
   and denial messages with elision/pushdown in any combination must be
   byte-identical to the sequential reference. *)

let prop ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let differential_tests =
  (* One shared instance: the workload is read-only except for retrain,
     which deterministically recomputes the same model. *)
  let app = websubmit () in
  (match status (retrain app) with 200 -> () | s -> failwith (Printf.sprintf "retrain %d" s));
  let cookies =
    [| ""; as_admin; as_student 0; as_student 1; as_student 5; "user=leader@school.edu" |]
  in
  let requests =
    [|
      (fun c -> Apps.Websubmit.get_aggregates app (req ~cookies:c Http.Meth.GET "/aggregates"));
      (fun c -> Apps.Websubmit.get_employer_info app (req ~cookies:c Http.Meth.GET "/employer"));
      (fun c -> Apps.Websubmit.predict_grades app (req ~cookies:c Http.Meth.GET "/predict/3"));
      (fun c -> Apps.Websubmit.retrain_model app (req ~cookies:c Http.Meth.POST "/retrain"));
      (fun c -> Apps.Websubmit.view_answer app (req ~cookies:c Http.Meth.GET "/view/1"));
      (fun c ->
        Apps.Websubmit.view_answers app ~compose:false (req ~cookies:c Http.Meth.GET "/answers/1"));
    |]
  in
  [
    prop "verdicts and denials are byte-identical across all modes"
      QCheck.(pair (int_bound (Array.length cookies - 1)) (int_bound (Array.length requests - 1)))
      (fun (ci, ri) ->
        let run () = requests.(ri) cookies.(ci) in
        let reference = with_flags ~elide:false ~push:false run in
        List.for_all
          (fun (elide, push) ->
            let r = with_flags ~elide ~push run in
            if status r = status reference && body r = body reference then true
            else
              QCheck.Test.fail_reportf
                "mode (elide=%b push=%b) diverged on cookie %S request %d:@.%d %s@.vs reference@.%d %s"
                elide push cookies.(ci) ri (status r) (body r) (status reference)
                (body reference))
          [ (true, true); (true, false); (false, true) ]);
  ]

let () =
  Alcotest.run "elision"
    [
      ("classification", classification_tests);
      ("corpus", corpus_tests);
      ("execution", execution_tests);
      ("stats", stats_tests);
      ("pushdown", pushdown_tests);
      ("stale-certificates", stale_tests);
      ("differential", differential_tests);
    ]
