(* The fail-closed matrix: every fault the injector can produce, at every
   seam, must surface as a structured deny/error — never as leaked
   sensitive data in a response and never as an exception escaping the
   handler. Plus unit tests for the injector itself and for the
   connector's retry/backoff and circuit-breaker machinery. *)

open Sesame_core
module F = Sesame_faults
module Http = Sesame_http
module Apps = Sesame_apps
module Db = Sesame_db

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* Every test must leave the injector disarmed, even on failure: the
   suites share one process. *)
let with_plans ?seed plans f =
  F.arm ?seed plans;
  Fun.protect ~finally:F.disarm f

(* ------------------------------------------------------------------ *)
(* Injector unit tests *)

(* One SELECT on a one-table store, with [action] armed at the query
   seam: the injected fault is the only way it can fail. *)
let select_under action =
  F.disarm ();
  let db = Db.Database.create () in
  Result.get_ok
    (Db.Database.create_table db
       (Db.Schema.make_exn ~name:"t" ~primary_key:"id"
          [ { name = "id"; ty = Db.Value.Tint; nullable = false } ]));
  let stmt = Result.get_ok (Db.Sql.parse "SELECT * FROM t" ~params:[]) in
  with_plans [ F.plan F.Db_query action ] (fun () -> Db.Database.exec_stmt db stmt)

let injector_tests =
  [
    test "point and action names round-trip" (fun () ->
        List.iter
          (fun p ->
            check_bool (F.point_name p) true (F.point_of_string (F.point_name p) = Some p))
          F.all_points;
        List.iter
          (fun a -> check_bool (F.action_name a) true (F.action_of_string (F.action_name a) = Some a))
          [ F.Raise; F.Corrupt; F.Exhaust ];
        check_bool "delay" true (F.action_of_string "delay:5000" = Some (F.Delay 5000)));
    test "disarmed hits are no-ops" (fun () ->
        F.disarm ();
        F.hit F.Db_query;
        check_bool "armed" false (F.armed ()));
    test "nth plan fires exactly on the nth traversal" (fun () ->
        with_plans [ F.plan ~nth:3 F.Db_query F.Raise ] (fun () ->
            F.hit F.Db_query;
            F.hit F.Db_query;
            check_bool "third raises" true
              (try
                 F.hit F.Db_query;
                 false
               with F.Injected { point = F.Db_query; _ } -> true);
            F.hit F.Db_query;
            check_int "counted" 4 (F.hits F.Db_query)));
    test "nth=0 fires on every traversal" (fun () ->
        with_plans [ F.plan ~nth:0 F.Guest_body F.Raise ] (fun () ->
            for _ = 1 to 3 do
              check_bool "raises" true
                (try
                   F.hit F.Guest_body;
                   false
                 with F.Injected _ -> true)
            done));
    test "corruption is deterministic under a seed" (fun () ->
        let corrupt () =
          with_plans ~seed:7 [ F.plan ~nth:0 F.Copier_decode F.Corrupt ] (fun () ->
              F.hit ~corruptible:true F.Copier_decode;
              check_bool "corrupting" true (F.corrupting F.Copier_decode);
              F.corrupt_string F.Copier_decode "hello sandbox")
        in
        let c1 = corrupt () and c2 = corrupt () in
        check_str "same seed, same corruption" c1 c2;
        check_bool "actually corrupted" true (c1 <> "hello sandbox");
        check_int "length preserved" (String.length "hello sandbox") (String.length c1));
    test "corrupt escalates to raise on non-corruptible seams" (fun () ->
        with_plans [ F.plan ~nth:0 F.Policy_check F.Corrupt ] (fun () ->
            check_bool "raises" true
              (try
                 F.hit F.Policy_check;
                 false
               with F.Injected { action = F.Corrupt; _ } -> true)));
    test "exhaust is transient and classified by the store" (fun () ->
        with_plans [ F.plan F.Db_query F.Exhaust ] (fun () ->
            match F.hit F.Db_query with
            | () -> Alcotest.fail "should raise"
            | exception F.Injected { transient; _ } -> check_bool "transient" true transient);
        match select_under F.Exhaust with
        | Error (Db.Database.Transient msg) ->
            check_bool "names the seam" true (contains msg (F.point_name F.Db_query))
        | _ -> Alcotest.fail "expected a transient error");
    test "raise is permanent" (fun () ->
        with_plans [ F.plan F.Db_query F.Raise ] (fun () ->
            match F.hit F.Db_query with
            | () -> Alcotest.fail "should raise"
            | exception F.Injected { transient; _ } -> check_bool "permanent" false transient);
        match select_under F.Raise with
        | Error (Db.Database.Permanent msg) ->
            check_bool "names the seam" true (contains msg (F.point_name F.Db_query))
        | _ -> Alcotest.fail "expected a permanent error");
  ]

(* ------------------------------------------------------------------ *)
(* The end-to-end matrix over WebSubmit *)

let req ?(cookies = "") ?(body = "") meth target =
  Http.Request.make
    ~headers:
      (Http.Headers.of_list
         [ ("Cookie", cookies); ("Content-Type", "application/x-www-form-urlencoded") ])
    ~body meth target

let status r = Http.Status.to_int r.Http.Response.status
let body r = r.Http.Response.body

let websubmit () =
  (* Build and seed with the injector disarmed: the plans must hit the
     request under test, not the fixture setup. *)
  F.disarm ();
  let app = Result.get_ok (Apps.Websubmit.create ()) in
  (match Apps.Websubmit.seed app ~students:4 ~questions:2 with
  | Ok () -> ()
  | Error m -> failwith m);
  Apps.Email.clear_outbox ();
  app

(* Markers of seeded sensitive data: answers render as "answer <n> from
   <email>" and every seeded principal is @school.edu. A faulted response
   must contain neither. *)
let leak_markers = [ "answer"; "school.edu" ]

let register_counter = ref 0

(* One endpoint per seam: /register crosses the sandbox seams (the API
   key is hashed in a sandboxed region); /view crosses the DB, policy
   and render seams. The durable-store seams are never traversed by this
   in-memory fixture; they get their own matrix below, because their
   failure semantics (poison, quarantine, reopen-through-recovery)
   differ from in-process seams. *)
let in_memory_points =
  [
    F.Arena_alloc;
    F.Copier_encode;
    F.Copier_decode;
    F.Guest_body;
    F.Db_query;
    F.Policy_check;
    F.Template_render;
  ]

let drive_seam app point =
  match point with
  | F.Arena_alloc | F.Copier_encode | F.Copier_decode | F.Guest_body ->
      incr register_counter;
      let body =
        Printf.sprintf "email=matrix%d%%40example.org&apikey=k-%d" !register_counter
          !register_counter
      in
      Apps.Websubmit.handle app (req ~body Http.Meth.POST "/register")
  | F.Db_query | F.Policy_check | F.Template_render ->
      Apps.Websubmit.handle app (req ~cookies:"user=student0@school.edu" Http.Meth.GET "/view/1")
  | F.Db_wal_append | F.Db_wal_fsync | F.Db_checkpoint_write | F.Db_checkpoint_rename ->
      invalid_arg "durable seams are driven by the wal matrix"
  | F.Preflight_trap_miss | F.Quota_account | F.Attest_append | F.Attest_fsync ->
      invalid_arg "hardening seams are driven by the hardening matrix below"
  | F.Db_scan_cancel | F.Wal_commit_deadline | F.Brownout_enter | F.Brownout_exit ->
      invalid_arg "deadline/brownout seams are driven by the overload matrix below"

let matrix_case app (point, action) =
  let name = Printf.sprintf "%s × %s" (F.point_name point) (F.action_name action) in
  test name (fun () ->
      let response, traversals =
        with_plans [ F.plan ~nth:0 point action ] (fun () ->
            let r =
              try drive_seam app point
              with exn ->
                Alcotest.failf "%s: exception escaped the handler: %s" name
                  (Printexc.to_string exn)
            in
            (r, F.hits point))
      in
      check_bool "seam traversed" true (traversals > 0);
      check_bool
        (Printf.sprintf "fails closed (got %d)" (status response))
        true
        (status response >= 400);
      List.iter
        (fun marker ->
          check_bool (Printf.sprintf "no %S in faulted response" marker) false
            (contains (body response) marker))
        leak_markers;
      (* Recovery: with the fault cleared, the same seam serves a healthy
         request again — quarantined arenas were replaced, no breaker is
         stuck open, no state was corrupted. *)
      let after = drive_seam app point in
      check_bool
        (Printf.sprintf "recovers after disarm (got %d)" (status after))
        true
        (status after < 400))

let matrix_tests =
  let app = websubmit () in
  let cases =
    List.concat_map
      (fun point -> List.map (fun action -> (point, action)) [ F.Raise; F.Corrupt; F.Exhaust ])
      in_memory_points
  in
  List.map (matrix_case app) cases
  @ [
      test "delay stalls but does not fail" (fun () ->
          let app = websubmit () in
          let r =
            with_plans [ F.plan ~nth:0 F.Db_query (F.Delay 10_000) ] (fun () ->
                drive_seam app F.Db_query)
          in
          check_int "still serves" 200 (status r);
          check_bool "still renders the answer" true (contains (body r) "answer"));
    ]

(* ------------------------------------------------------------------ *)
(* The durable-store seams. WAL append/fsync faults must fail the
   statement — never acknowledge — and poison the store: it takes no
   write, and serves reads from the last consistent state on disk under
   every policy, until a reopen through recovery, which must serve
   every acknowledged row under its original policy.
   Checkpoint faults are recoverable: traffic continues, and the old
   checkpoint + WAL stay authoritative. *)

module Wal = Sesame_wal

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sesame-faults-wal-%d" !counter)
    in
    rm_rf dir;
    dir

let durable_websubmit dir =
  F.disarm ();
  match Apps.Websubmit.create_durable ~data_dir:dir () with
  | Error m -> failwith m
  | Ok (app, store) ->
      if Apps.Websubmit.answer_count app = 0 then (
        match Apps.Websubmit.seed app ~students:4 ~questions:2 with
        | Ok () -> ()
        | Error m -> failwith m);
      Apps.Email.clear_outbox ();
      (app, store)

let submit app n =
  Apps.Websubmit.handle app
    (req ~cookies:"user=student0@school.edu"
       ~body:(Printf.sprintf "answer=wal%d" n)
       Http.Meth.POST
       (Printf.sprintf "/submit/1/%d" (100 + n)))

let view app ~user id =
  Apps.Websubmit.handle app
    (req ~cookies:("user=" ^ user) Http.Meth.GET (Printf.sprintf "/view/%d" id))

let wal_write_case (point, action) =
  let name = Printf.sprintf "%s × %s" (F.point_name point) (F.action_name action) in
  test name (fun () ->
      let dir = fresh_dir () in
      let app, store = durable_websubmit dir in
      let before = Apps.Websubmit.answer_count app in
      let response, traversals =
        with_plans [ F.plan ~nth:0 point action ] (fun () ->
            let r =
              try submit app 1
              with exn ->
                Alcotest.failf "%s: exception escaped the handler: %s" name
                  (Printexc.to_string exn)
            in
            (r, F.hits point))
      in
      check_bool "seam traversed" true (traversals > 0);
      check_bool
        (Printf.sprintf "statement not acknowledged (got %d)" (status response))
        true
        (status response >= 400);
      List.iter
        (fun marker ->
          check_bool (Printf.sprintf "no %S in faulted response" marker) false
            (contains (body response) marker))
        leak_markers;
      (* Memory and log have diverged: the store is poisoned. Reads are
         served from the last consistent state on disk, marked, under
         every policy, and still without leaking. *)
      check_bool "poison reason recorded" true
        (Db.Database.poisoned (Apps.Websubmit.database app) <> None);
      let read, degraded =
        Sesame_request.serve Sesame_request.none (fun () ->
            view app ~user:"student0@school.edu" 1)
      in
      check_int "the author reads the snapshot" 200 (status read);
      check_str "marked degraded" "snapshot" (Option.value ~default:"" degraded);
      let denied = view app ~user:"student1@school.edu" 1 in
      check_bool "another student is denied on the snapshot" true (status denied >= 400);
      (* The denial says "no such answer", so the probe looks for the
         seeded answer text itself. *)
      List.iter
        (fun marker ->
          check_bool (Printf.sprintf "no %S while quarantined" marker) false
            (contains (body denied) marker))
        [ "answer 0 from"; "school.edu" ];
      ignore (Wal.Durable.close store);
      (* Reopen through recovery. An append fault strikes before the frame
         is buffered, so the failed insert is gone; an fsync fault strikes
         after the write, so the frame may be on disk — durable but never
         acknowledged, which recovery is allowed to surface. Either way
         every recovered row is under its original policy. *)
      let app', store' = durable_websubmit dir in
      let recovered = Apps.Websubmit.answer_count app' in
      let expected = if point = F.Db_wal_append then before else before + 1 in
      check_int "acknowledged rows recovered" expected recovered;
      check_int "author reads a recovered answer" 200
        (status (view app' ~user:"student0@school.edu" 1));
      check_bool "another student is still denied" true
        (status (view app' ~user:"student1@school.edu" 1) >= 400);
      if recovered > before then begin
        (* The unacknowledged-but-durable row is also policy-governed. *)
        check_int "author reads the surfaced row" 200
          (status (view app' ~user:"student0@school.edu" 9));
        check_bool "others denied on the surfaced row" true
          (status (view app' ~user:"student1@school.edu" 9) >= 400)
      end;
      ignore (Wal.Durable.close store'))

let wal_checkpoint_case (point, action) =
  let name = Printf.sprintf "%s × %s" (F.point_name point) (F.action_name action) in
  test name (fun () ->
      let dir = fresh_dir () in
      let app, store = durable_websubmit dir in
      let before = Apps.Websubmit.answer_count app in
      let result, traversals =
        with_plans [ F.plan ~nth:0 point action ] (fun () ->
            let r = Wal.Durable.checkpoint store in
            (r, F.hits point))
      in
      check_bool "seam traversed" true (traversals > 0);
      check_bool "checkpoint reports failure" true (Result.is_error result);
      check_bool "failure recorded" true (Wal.Durable.last_checkpoint_error store <> None);
      (* Recoverable: no poison, reads serve, writes acknowledge. *)
      check_bool "no poison" true
        (Db.Database.poisoned (Apps.Websubmit.database app) = None);
      check_int "reads still serve" 200 (status (view app ~user:"student0@school.edu" 1));
      check_int "writes still acknowledge" 201 (status (submit app 2));
      (* Fault cleared: checkpointing works again, and a reopen recovers
         everything — acknowledged writes included. *)
      (match Wal.Durable.checkpoint store with
      | Ok () -> ()
      | Error m -> Alcotest.failf "checkpoint after disarm failed: %s" m);
      ignore (Wal.Durable.close store);
      let app', store' = durable_websubmit dir in
      check_int "all acknowledged rows recovered" (before + 1)
        (Apps.Websubmit.answer_count app');
      check_int "author still reads" 200 (status (view app' ~user:"student0@school.edu" 1));
      check_bool "policy still enforced" true
        (status (view app' ~user:"student1@school.edu" 1) >= 400);
      ignore (Wal.Durable.close store'))

let wal_matrix_tests =
  let actions = [ F.Raise; F.Corrupt; F.Exhaust ] in
  List.map wal_write_case
    (List.concat_map
       (fun point -> List.map (fun action -> (point, action)) actions)
       [ F.Db_wal_append; F.Db_wal_fsync ])
  @ List.map wal_checkpoint_case
      (List.concat_map
         (fun point -> List.map (fun action -> (point, action)) actions)
         [ F.Db_checkpoint_write; F.Db_checkpoint_rename ])

(* ------------------------------------------------------------------ *)
(* The overload seams: scan cancellation, write admission, and the two
   brownout transitions. Their failure semantics differ from the WAL
   seams above — a cancelled scan or refused write admission must leave
   the store healthy (no poison), and a faulted brownout transition must
   leave the connector in its previous degraded-or-healthy state rather
   than half-switched. *)

(* The scan-cancel seam only fires once a single scan has walked 256
   slots, so this fixture needs a table bigger than one checkpoint
   interval. 130 students x 2 questions = 260 answers. *)
let big_websubmit () =
  F.disarm ();
  let app = Result.get_ok (Apps.Websubmit.create ()) in
  (match Apps.Websubmit.seed app ~students:130 ~questions:2 with
  | Ok () -> ()
  | Error m -> failwith m);
  Apps.Email.clear_outbox ();
  app

let aggregates app =
  Apps.Websubmit.handle app (req ~cookies:"user=admin@school.edu" Http.Meth.GET "/aggregates")

let scan_cancel_case action =
  let name = Printf.sprintf "db-scan-cancel × %s" (F.action_name action) in
  test name (fun () ->
      let app = big_websubmit () in
      let response, traversals =
        with_plans [ F.plan ~nth:0 F.Db_scan_cancel action ] (fun () ->
            let r =
              try aggregates app
              with exn ->
                Alcotest.failf "%s: exception escaped the handler: %s" name
                  (Printexc.to_string exn)
            in
            (r, F.hits F.Db_scan_cancel))
      in
      check_bool "seam traversed" true (traversals > 0);
      check_bool
        (Printf.sprintf "scan abandoned, fails closed (got %d)" (status response))
        true
        (status response >= 400);
      List.iter
        (fun marker ->
          check_bool (Printf.sprintf "no %S in cancelled scan" marker) false
            (contains (body response) marker))
        leak_markers;
      (* A cancelled scan read nothing into the response and wrote
         nothing: the store is healthy and the same scan completes. *)
      check_bool "no poison" true
        (Db.Database.poisoned (Apps.Websubmit.database app) = None);
      check_int "recovers after disarm" 200 (status (aggregates app)))

let wal_commit_deadline_case action =
  let name = Printf.sprintf "wal-commit-deadline × %s" (F.action_name action) in
  test name (fun () ->
      let dir = fresh_dir () in
      let app, store = durable_websubmit dir in
      let before = Apps.Websubmit.answer_count app in
      let response, traversals =
        with_plans [ F.plan ~nth:0 F.Wal_commit_deadline action ] (fun () ->
            let r =
              try submit app 1
              with exn ->
                Alcotest.failf "%s: exception escaped the handler: %s" name
                  (Printexc.to_string exn)
            in
            (r, F.hits F.Wal_commit_deadline))
      in
      check_bool "seam traversed" true (traversals > 0);
      check_bool
        (Printf.sprintf "write refused at admission (got %d)" (status response))
        true
        (status response >= 400);
      List.iter
        (fun marker ->
          check_bool (Printf.sprintf "no %S in refused write" marker) false
            (contains (body response) marker))
        leak_markers;
      (* Admission strikes before the engine applies anything: unlike a
         mid-journal fault, memory and log never diverged, so the store
         is NOT poisoned — reads serve and the retried write lands. *)
      check_bool "store not poisoned" true
        (Db.Database.poisoned (Apps.Websubmit.database app) = None);
      check_int "reads still serve" 200 (status (view app ~user:"student0@school.edu" 1));
      check_int "retried write acknowledges" 201 (status (submit app 2));
      check_int "no row from the refused write" (before + 1) (Apps.Websubmit.answer_count app);
      ignore (Wal.Durable.close store))

(* Poison the store through a WAL append fault, as the brownout tests'
   common entry condition. *)
let poison app =
  let r = with_plans [ F.plan ~nth:0 F.Db_wal_append F.Raise ] (fun () -> submit app 1) in
  check_bool "poisoning write refused" true (status r >= 400);
  check_bool "store poisoned" true
    (Db.Database.poisoned (Apps.Websubmit.database app) <> None)

(* The brownout cases probe as admin, whom the view and submit policies
   both admit; [brownout_student_case] probes as a student, whose
   session lookup reads the snapshot too. *)
let admin = "admin@school.edu"

let submit_as app ~user n =
  Apps.Websubmit.handle app
    (req ~cookies:("user=" ^ user)
       ~body:(Printf.sprintf "answer=wal%d" n)
       Http.Meth.POST
       (Printf.sprintf "/submit/1/%d" (100 + n)))

(* Read through the handler under a fresh request record, so the
   degraded marker observed is this request's own. The probe is
   [/aggregates]: unlike [/view/<id>] (whose SQL filters on the caller's
   own email, so the admin fallback legitimately sees no rows) it serves
   any admin, and its aggregation always re-scans the store, so the
   snapshot fallback is exercised on every request. *)
let aggregates_tracking_degraded app =
  Sesame_request.serve Sesame_request.none (fun () -> aggregates app)

let brownout_enter_case action =
  let name = Printf.sprintf "brownout-enter × %s" (F.action_name action) in
  test name (fun () ->
      let dir = fresh_dir () in
      let app, store = durable_websubmit dir in
      poison app;
      (* Snapshot recovery itself fails: reads keep failing closed,
         exactly as they did before brownout existed — never a
         half-loaded snapshot presented as data. *)
      let (response, degraded), traversals =
        with_plans [ F.plan ~nth:0 F.Brownout_enter action ] (fun () ->
            let r =
              try aggregates_tracking_degraded app
              with exn ->
                Alcotest.failf "%s: exception escaped the handler: %s" name
                  (Printexc.to_string exn)
            in
            (r, F.hits F.Brownout_enter))
      in
      check_bool "seam traversed" true (traversals > 0);
      check_bool
        (Printf.sprintf "read fails closed (got %d)" (status response))
        true
        (status response >= 400);
      check_bool "not marked degraded" true (degraded = None);
      List.iter
        (fun marker ->
          check_bool (Printf.sprintf "no %S while quarantined" marker) false
            (contains (body response) marker))
        leak_markers;
      check_bool "did not enter brownout" false
        (Db.Database.in_brownout (Apps.Websubmit.database app));
      (* Fault cleared: the next read enters brownout and serves the
         snapshot, marked degraded. *)
      let after, degraded = aggregates_tracking_degraded app in
      check_int "snapshot read serves after disarm" 200 (status after);
      check_str "marked degraded" "snapshot" (Option.value ~default:"" degraded);
      check_bool "now in brownout" true (Db.Database.in_brownout (Apps.Websubmit.database app));
      ignore (Wal.Durable.close store))

let brownout_exit_case action =
  let name = Printf.sprintf "brownout-exit × %s" (F.action_name action) in
  test name (fun () ->
      let dir = fresh_dir () in
      let app, store = durable_websubmit dir in
      poison app;
      (* Enter brownout cleanly first. *)
      let entered, degraded = aggregates_tracking_degraded app in
      check_int "brownout read serves" 200 (status entered);
      check_str "marked degraded" "snapshot" (Option.value ~default:"" degraded);
      (* Recovery fails mid-exit: the connector STAYS degraded — snapshot
         reads keep serving, writes stay refused — rather than resuming
         on a half-recovered store. *)
      let result, traversals =
        with_plans [ F.plan ~nth:0 F.Brownout_exit action ] (fun () ->
            let r = Wal.Durable.reopen store in
            (r, F.hits F.Brownout_exit))
      in
      check_bool "seam traversed" true (traversals > 0);
      check_bool "recovery reports failure" true (Result.is_error result);
      check_bool "still in brownout" true (Db.Database.in_brownout (Apps.Websubmit.database app));
      let still, degraded = aggregates_tracking_degraded app in
      check_int "degraded reads still serve" 200 (status still);
      check_str "still marked degraded" "snapshot" (Option.value ~default:"" degraded);
      check_bool "writes still refused" true (status (submit_as app ~user:admin 2) >= 400);
      (* Fault cleared: recovery completes, writes acknowledge again and
         reads are fresh (no degraded marker). *)
      (match Wal.Durable.reopen store with
      | Error m -> Alcotest.failf "recovery after disarm failed: %s" m
      | Ok () ->
          check_bool "left brownout" false (Db.Database.in_brownout (Apps.Websubmit.database app));
          let fresh, degraded = aggregates_tracking_degraded app in
          check_int "fresh read serves" 200 (status fresh);
          check_bool "no degraded marker" true (degraded = None);
          check_int "writes acknowledge again" 201 (status (submit app 3)));
      ignore (Wal.Durable.close store))

(* Brownout and recovery reach every reader, because every reader
   holds the one store: session lookup, the policies' own lookups
   (discussion leaders, ML consent, the retrain pushdown) and the
   indexes the app declared. *)
let retrain app =
  Apps.Websubmit.retrain_model app (req ~cookies:("user=" ^ admin) Http.Meth.POST "/retrain")

let trained app =
  match Apps.Websubmit.model app with
  | Some model ->
      let w, b = Pcon.Internal.unwrap model in
      (Int64.bits_of_float w, Int64.bits_of_float b)
  | None -> Alcotest.fail "no model after retrain"

let leader_answers app =
  Apps.Websubmit.handle app (req ~cookies:"user=leader@school.edu" Http.Meth.GET "/answers/1")

let brownout_recovery_case =
  test "brownout recovery restores every reader" (fun () ->
      let dir = fresh_dir () in
      let app, store = durable_websubmit dir in
      let db = Apps.Websubmit.database app in
      let one_handle label =
        check_bool (label ^ ": the app reads the store's handle") true (db == Wal.Durable.db store)
      in
      one_handle "before the poison";
      check_int "retrains before the poison" 200 (status (retrain app));
      let weights = trained app in
      let leads = leader_answers app in
      check_int "the leader reads lecture 1" 200 (status leads);
      poison app;
      check_int "brownout read serves" 200 (status (fst (aggregates_tracking_degraded app)));
      check_bool "in brownout" true (Db.Database.in_brownout db);
      one_handle "during brownout";
      (match Wal.Durable.reopen store with
      | Ok () -> ()
      | Error m -> Alcotest.failf "recovery failed: %s" m);
      one_handle "after the reopen";
      check_int "retrains after the reopen" 200 (status (retrain app));
      check_bool "the same (w, b)" true (trained app = weights);
      let leads' = leader_answers app in
      check_int "the leader reads lecture 1 after the reopen" 200 (status leads');
      check_str "the same bytes" (body leads) (body leads');
      List.iter
        (fun (table, column) ->
          match Db.Database.table db table with
          | Some tbl ->
              check_bool (Printf.sprintf "%s.%s indexed" table column) true
                (Db.Table.has_index tbl column)
          | None -> Alcotest.failf "no table %s after the reopen" table)
        [ ("answers", "email"); ("answers", "lecture"); ("users", "email");
          ("discussion_leaders", "lecture") ];
      ignore (Wal.Durable.close store))

let brownout_student_case =
  test "brownout serves a student session" (fun () ->
      let dir = fresh_dir () in
      let app, store = durable_websubmit dir in
      let before = Apps.Websubmit.answer_count app in
      poison app;
      let own, degraded =
        Sesame_request.serve Sesame_request.none (fun () ->
            view app ~user:"student0@school.edu" 1)
      in
      check_int "the student reads their own answer" 200 (status own);
      check_str "marked degraded" "snapshot" (Option.value ~default:"" degraded);
      check_int "the count is the snapshot's" before (Apps.Websubmit.answer_count app);
      let refused = submit app 2 in
      check_int "their submit is refused" 503 (status refused);
      check_bool "retryable" true
        (Http.Headers.get refused.Http.Response.headers "Retry-After" <> None);
      check_bool "says read-only" true (contains (body refused) "read-only");
      ignore (Wal.Durable.close store))

let overload_matrix_tests =
  let actions = [ F.Raise; F.Corrupt; F.Exhaust ] in
  List.map scan_cancel_case actions
  @ List.map wal_commit_deadline_case actions
  @ List.map brownout_enter_case actions
  @ List.map brownout_exit_case [ F.Raise; F.Exhaust ]
  @ [ brownout_recovery_case; brownout_student_case ]

(* ------------------------------------------------------------------ *)
(* Connector resilience: retry/backoff and the circuit breaker *)

module Only_family = struct
  type s = { who : string }

  let name = "test::only"
  let check s ctx = Context.user ctx = Some s.who
  let join = None
  let no_folding = false
  let describe s = "Only(" ^ s.who ^ ")"
end

module Only = Policy.Make (Only_family)

let ada = Mock.context ~user:"ada" ()

let conn_fixture () =
  F.disarm ();
  let db = Db.Database.create () in
  let schema =
    Db.Schema.make_exn ~name:"notes" ~primary_key:"id"
      [
        { name = "id"; ty = Db.Value.Tint; nullable = false };
        { name = "owner"; ty = Db.Value.Ttext; nullable = false };
        { name = "note"; ty = Db.Value.Ttext; nullable = false };
      ]
  in
  Result.get_ok (Db.Database.create_table db schema);
  ignore
    (Result.get_ok
       (Db.Database.exec db "INSERT INTO notes VALUES (?, ?, ?)"
          ~params:[ Db.Value.Int 1; Db.Value.Text "ada"; Db.Value.Text "ada's note" ]));
  Sesame_conn.create db

let retry : Sesame_conn.retry_policy =
  { max_attempts = 3; base_delay_s = 0.001; max_delay_s = 0.05; jitter = 0.2 }

let select conn = Sesame_conn.query conn ~context:ada "SELECT * FROM notes" ~params:[]

let retry_tests =
  [
    test "transient failures retry and then fail closed" (fun () ->
        let conn = conn_fixture () in
        let sleeps = ref [] in
        Sesame_conn.configure_resilience conn ~retry ~seed:42
          ~sleep:(fun d -> sleeps := d :: !sleeps)
          ~now:(fun () -> 0.0)
          ();
        let r = with_plans [ F.plan ~nth:0 F.Db_query F.Exhaust ] (fun () -> select conn) in
        (match r with
        | Error (Sesame_conn.Db_error { transient = true; _ }) -> ()
        | _ -> Alcotest.fail "expected a transient Db_error");
        let s = Sesame_conn.sink_stats conn "db::query" in
        check_int "attempts" 3 s.Sesame_conn.attempts;
        check_int "retries" 2 s.Sesame_conn.retries;
        check_int "two backoff sleeps" 2 (List.length !sleeps);
        List.iter (fun d -> check_bool "positive delay" true (d > 0.0)) !sleeps);
    test "backoff sequence is a pure function of the seed" (fun () ->
        let run () =
          let conn = conn_fixture () in
          let sleeps = ref [] in
          Sesame_conn.configure_resilience conn ~retry ~seed:42
            ~sleep:(fun d -> sleeps := d :: !sleeps)
            ~now:(fun () -> 0.0)
            ();
          ignore (with_plans [ F.plan ~nth:0 F.Db_query F.Exhaust ] (fun () -> select conn));
          List.rev !sleeps
        in
        let a = run () and b = run () in
        check_bool "identical delays" true (a = b);
        (* Capped exponential: each delay respects base·2^k scaled by
           ±jitter, and never exceeds the cap. *)
        List.iteri
          (fun i d ->
            let nominal = retry.Sesame_conn.base_delay_s *. (2.0 ** float_of_int i) in
            check_bool "within jitter band" true
              (d >= nominal *. (1.0 -. retry.Sesame_conn.jitter) -. 1e-9
              && d <= nominal *. (1.0 +. retry.Sesame_conn.jitter) +. 1e-9);
            check_bool "capped" true (d <= retry.Sesame_conn.max_delay_s +. 1e-9))
          a);
    test "a one-shot transient fault succeeds on retry" (fun () ->
        let conn = conn_fixture () in
        Sesame_conn.configure_resilience conn ~retry ~sleep:(fun _ -> ()) ~now:(fun () -> 0.0) ();
        let r = with_plans [ F.plan ~nth:1 F.Db_query F.Exhaust ] (fun () -> select conn) in
        check_bool "recovered" true (Result.is_ok r);
        let s = Sesame_conn.sink_stats conn "db::query" in
        check_int "one retry" 1 s.Sesame_conn.retries;
        check_int "breaker reset" 0 s.Sesame_conn.consecutive_failures;
        check_bool "closed" true (s.Sesame_conn.state = Sesame_conn.Closed));
    test "permanent failures are not retried" (fun () ->
        let conn = conn_fixture () in
        let sleeps = ref 0 in
        Sesame_conn.configure_resilience conn ~retry ~sleep:(fun _ -> incr sleeps)
          ~now:(fun () -> 0.0)
          ();
        let r = with_plans [ F.plan ~nth:0 F.Db_query F.Raise ] (fun () -> select conn) in
        (match r with
        | Error (Sesame_conn.Db_error { transient = false; _ }) -> ()
        | _ -> Alcotest.fail "expected a permanent Db_error");
        let s = Sesame_conn.sink_stats conn "db::query" in
        check_int "single attempt" 1 s.Sesame_conn.attempts;
        check_int "no retries" 0 s.Sesame_conn.retries;
        check_int "no sleeps" 0 !sleeps);
  ]

let breaker_tests =
  let scripted ?(threshold = 2) () =
    let conn = conn_fixture () in
    let clock = ref 0.0 in
    Sesame_conn.configure_resilience conn
      ~retry:{ retry with Sesame_conn.max_attempts = 1 }
      ~breaker:{ failure_threshold = threshold; cooldown_s = 10.0 }
      ~sleep:(fun _ -> ())
      ~now:(fun () -> !clock)
      ();
    (conn, clock)
  in
  [
    test "closed → open → half-open → closed" (fun () ->
        let conn, clock = scripted () in
        with_plans [ F.plan ~nth:0 F.Db_query F.Exhaust ] (fun () ->
            ignore (select conn);
            check_bool "still closed" true
              (Sesame_conn.breaker_state conn ~sink:"db::query" = Sesame_conn.Closed);
            ignore (select conn));
        let s = Sesame_conn.sink_stats conn "db::query" in
        check_bool "open" true (s.Sesame_conn.state = Sesame_conn.Open);
        check_int "tripped once" 1 s.Sesame_conn.opens;
        (* While open: short-circuited without touching the database. *)
        let before = with_plans [] (fun () -> F.hits F.Db_query) in
        ignore before;
        (match select conn with
        | Error (Sesame_conn.Breaker_open { sink }) -> check_str "sink" "db::query" sink
        | _ -> Alcotest.fail "expected Breaker_open");
        check_int "short-circuited" 1
          (Sesame_conn.sink_stats conn "db::query").Sesame_conn.short_circuited;
        (* Cooldown elapses: half-open, and a healthy probe closes it. *)
        clock := 11.0;
        check_bool "half-open" true
          (Sesame_conn.breaker_state conn ~sink:"db::query" = Sesame_conn.Half_open);
        check_bool "probe succeeds" true (Result.is_ok (select conn));
        let s = Sesame_conn.sink_stats conn "db::query" in
        check_bool "closed again" true (s.Sesame_conn.state = Sesame_conn.Closed);
        check_int "failures reset" 0 s.Sesame_conn.consecutive_failures);
    test "a failed half-open probe reopens the breaker" (fun () ->
        let conn, clock = scripted () in
        with_plans [ F.plan ~nth:0 F.Db_query F.Exhaust ] (fun () ->
            ignore (select conn);
            ignore (select conn);
            clock := 11.0;
            check_bool "half-open" true
              (Sesame_conn.breaker_state conn ~sink:"db::query" = Sesame_conn.Half_open);
            ignore (select conn));
        let s = Sesame_conn.sink_stats conn "db::query" in
        check_bool "reopened" true (s.Sesame_conn.state = Sesame_conn.Open);
        check_int "tripped twice" 2 s.Sesame_conn.opens;
        (* And it recovers once the fault clears and cooldown passes. *)
        clock := 22.0;
        check_bool "recovers" true (Result.is_ok (select conn));
        check_bool "closed" true
          (Sesame_conn.breaker_state conn ~sink:"db::query" = Sesame_conn.Closed));
    test "sinks have independent breakers" (fun () ->
        let conn, _clock = scripted () in
        with_plans [ F.plan ~nth:0 F.Db_query F.Exhaust ] (fun () ->
            ignore (select conn);
            ignore (select conn));
        check_bool "query open" true
          (Sesame_conn.breaker_state conn ~sink:"db::query" = Sesame_conn.Open);
        check_bool "execute unaffected" true
          (Sesame_conn.breaker_state conn ~sink:"db::execute" = Sesame_conn.Closed);
        match
          Sesame_conn.execute conn ~context:ada "UPDATE notes SET note = ? WHERE id = ?"
            ~params:
              [
                Pcon.wrap_no_policy (Db.Value.Text "updated");
                Pcon.wrap_no_policy (Db.Value.Int 1);
              ]
        with
        | Ok 1 -> ()
        | Ok n -> Alcotest.failf "updated %d rows" n
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
    test "policy denials neither retry nor feed the breaker" (fun () ->
        let conn, _clock = scripted ~threshold:1 () in
        let secret = Pcon.Internal.make (Only.make { who = "eve" }) (Db.Value.Int 1) in
        for _ = 1 to 3 do
          match
            Sesame_conn.query conn ~context:ada "SELECT * FROM notes WHERE id = ?"
              ~params:[ secret ]
          with
          | Error (Sesame_conn.Policy_denied _) -> ()
          | _ -> Alcotest.fail "expected denial"
        done;
        let s = Sesame_conn.sink_stats conn "db::query" in
        check_bool "closed" true (s.Sesame_conn.state = Sesame_conn.Closed);
        check_int "no failures recorded" 0 s.Sesame_conn.consecutive_failures;
        check_int "db never attempted" 0 s.Sesame_conn.attempts);
    test "a duplicate key whose data reads like a fault is permanent" (fun () ->
        (* The class comes from the store, not from the message, which
           carries the row's own data. *)
        let app = websubmit () in
        let register () =
          Apps.Websubmit.handle app
            (req ~body:"email=connection@evil.org&apikey=k" Http.Meth.POST "/register")
        in
        check_int "the first registers" 201 (status (register ()));
        for _ = 1 to 6 do
          check_int "a duplicate answers 500" 500 (status (register ()))
        done;
        let s = Sesame_conn.sink_stats (Apps.Websubmit.conn app) "db::insert" in
        check_int "one attempt each" 7 s.Sesame_conn.attempts;
        check_int "never retried" 0 s.Sesame_conn.retries;
        check_bool "the breaker stays closed" true (s.Sesame_conn.state = Sesame_conn.Closed);
        check_int "a student still submits" 201 (status (submit app 1)));
    test "the connector's three sinks start closed; no other sink has a breaker" (fun () ->
        let conn = conn_fixture () in
        List.iter
          (fun sink ->
            let s = Sesame_conn.sink_stats conn sink in
            check_bool (sink ^ " closed") true (s.Sesame_conn.state = Sesame_conn.Closed);
            check_int (sink ^ " unused") 0 s.Sesame_conn.attempts)
          [ "db::query"; "db::insert"; "db::execute" ];
        match Sesame_conn.sink_stats conn "db::other" with
        | _ -> Alcotest.fail "expected Invalid_argument for an unknown sink"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Fail-closed policy checks and denial metadata *)

let failclosed_tests =
  [
    test "denials carry the sink and the first denied parameter index" (fun () ->
        let conn = conn_fixture () in
        let ok = Pcon.wrap_no_policy (Db.Value.Int 1) in
        let denied who = Pcon.Internal.make (Only.make { who }) (Db.Value.Int 1) in
        match
          Sesame_conn.query conn ~context:ada "SELECT * FROM notes WHERE id = ? OR id = ? OR id = ?"
            ~params:[ ok; denied "eve"; denied "mallory" ]
        with
        | Error (Sesame_conn.Policy_denied { sink; param_index; _ }) ->
            check_str "sink" "db::query" sink;
            check_bool "first denied param, in order" true (param_index = Some 1)
        | _ -> Alcotest.fail "expected denial");
    test "an injected fault inside the policy check denies" (fun () ->
        let conn = conn_fixture () in
        let r =
          with_plans [ F.plan ~nth:0 F.Policy_check F.Raise ] (fun () ->
              Sesame_conn.query conn ~context:ada "SELECT * FROM notes WHERE id = ?"
                ~params:[ Pcon.wrap_no_policy (Db.Value.Int 1) ])
        in
        match r with
        | Error (Sesame_conn.Policy_denied { policy; param_index; _ }) ->
            check_bool "names the fault" true (contains policy "injected fault");
            check_bool "index" true (param_index = Some 0)
        | _ -> Alcotest.fail "expected denial");
    test "error_response never echoes render detail" (fun () ->
        let r =
          Sesame_web.error_response (Sesame_web.Render_error "SECRET-INTERNAL-DETAIL")
        in
        check_int "500" 500 (Http.Status.to_int r.Http.Response.status);
        check_str "generic body" "internal error" r.Http.Response.body;
        check_bool "no detail" false (contains r.Http.Response.body "SECRET"));
    test "web policy-check faults deny, not crash" (fun () ->
        let context = Mock.context ~user:"ada" () in
        let pcon = Pcon.Internal.make (Only.make { who = "ada" }) "payload" in
        let r =
          with_plans [ F.plan ~nth:0 F.Policy_check F.Raise ] (fun () ->
              Sesame_web.respond_text ~context pcon)
        in
        match r with
        | Error (Sesame_web.Policy_denied { policy; _ }) ->
            check_bool "names the fault" true (contains policy "injected fault")
        | _ -> Alcotest.fail "expected denial");
  ]

(* ------------------------------------------------------------------ *)
(* The hardening seams. Unlike the in-memory matrix these are not driven
   through an endpoint: each seam's contract is local and fail-closed —
   a missed preflight confirmation refuses the pool, a faulted
   accounting call leaves the books untouched, a faulted attestation
   append returns an error the region must turn into a denial. Every
   action (corrupt escalates to raise at payload-free seams) must behave
   identically, and every seam must recover the moment it is disarmed. *)

module Sbx = Sesame_sandbox
module Sign = Sesame_signing

let attest_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sesame-faults-attest-%d-%d.log" (Unix.getpid ()) !counter)
    in
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".lock" ];
    path

let hardening_actions = [ F.Raise; F.Corrupt; F.Exhaust ]

(* [check] returns the seam's traversal count — it must read [F.hits]
   itself, before anything (including its own recovery step) disarms the
   injector and clears the counters. *)
let hardening_case point action check =
  let name = Printf.sprintf "%s × %s" (F.point_name point) (F.action_name action) in
  test name (fun () ->
      let traversals = with_plans [ F.plan ~nth:0 point action ] check in
      check_bool "seam traversed" true (traversals > 0))

let preflight_seam_cases =
  List.map
    (fun action ->
      hardening_case F.Preflight_trap_miss action (fun () ->
          (match Sbx.Sfi.create_pool () with
          | Ok _ -> Alcotest.fail "pool constructed despite missed trap confirmations"
          | Error report -> check_bool "fails closed" false (Sbx.Preflight.passed report));
          F.hits F.Preflight_trap_miss))
    hardening_actions
  @ [
      test "preflight recovers once disarmed" (fun () ->
          match Sbx.Sfi.create_pool () with
          | Ok (_, report) -> check_bool "passes" true (Sbx.Preflight.passed report)
          | Error report -> Alcotest.fail (Sbx.Preflight.summary report));
    ]

let quota_seam_cases =
  List.map
    (fun action ->
      hardening_case F.Quota_account action (fun () ->
          let q = Sbx.Quota.create () in
          match Sbx.Quota.account q ~key:"r" ~trapped:false ~fuel:7 ~wall_s:0.1 ~mem_bytes:64 with
          | () -> Alcotest.fail "account succeeded under an injected fault"
          | exception F.Injected _ ->
              (* The seam fires before any counter moves: the books must
                 be untouched, so the caller's denial is the only trace. *)
              check_bool "books untouched" true (Sbx.Quota.counters_for q ~key:"r" = None);
              F.hits F.Quota_account))
    hardening_actions
  @ [
      test "accounting recovers once disarmed" (fun () ->
          let q = Sbx.Quota.create () in
          Sbx.Quota.account q ~key:"r" ~trapped:false ~fuel:7 ~wall_s:0.1 ~mem_bytes:64;
          match Sbx.Quota.counters_for q ~key:"r" with
          | Some c -> check_int "charged" 7 c.Sbx.Quota.fuel
          | None -> Alcotest.fail "no books after a clean account");
    ]

(* [attest-append] fires before anything is written, so the refused
   frame never reaches the log; [attest-fsync] fires between write and
   flush — the bytes are in the file (a real crash would lose them with
   the page cache), but the caller still gets the error and must deny.
   [expect_frames] pins both behaviours down. *)
let attest_seam_case ~fsync ~expect_frames point action =
  hardening_case point action (fun () ->
      let path = attest_path () in
      (* The recorder is created before the plan can fire: nth:0 plans
         are armed by [hardening_case], and creation appends nothing. *)
      match Sign.Attest.create_recorder ~fsync path with
      | Error m -> Alcotest.fail m
      | Ok r ->
          let traversals =
            Fun.protect
              ~finally:(fun () -> Sign.Attest.close_recorder r)
              (fun () ->
                let hash = Sign.Sha256.digest_string "body" in
                (match
                   Sign.Attest.append_approval r ~kind:"sandboxed" ~body_hash:hash ~verdict:"v"
                 with
                | Ok () -> Alcotest.fail "append acknowledged under an injected fault"
                | Error _ -> ());
                let traversals = F.hits point in
                F.disarm ();
                (match
                   Sign.Attest.append_approval r ~kind:"sandboxed" ~body_hash:hash ~verdict:"v"
                 with
                | Ok () -> ()
                | Error m -> Alcotest.fail ("append after disarm: " ^ m));
                traversals)
          in
          let s =
            match Sign.Attest.verify path with Ok s -> s | Error m -> Alcotest.fail m
          in
          check_int "log holds exactly the expected frames" expect_frames
            s.Sign.Attest.approvals;
          traversals)

let attest_seam_cases =
  List.map (attest_seam_case ~fsync:false ~expect_frames:1 F.Attest_append) hardening_actions
  @ List.map (attest_seam_case ~fsync:true ~expect_frames:2 F.Attest_fsync) hardening_actions

let hardening_matrix_tests =
  preflight_seam_cases @ quota_seam_cases @ attest_seam_cases

(* ------------------------------------------------------------------ *)
(* Brownout reads wrap their rows under the snapshot's own tables *)

let brownout_staging_tests =
  [
    test "brownout rows wrap under the snapshot table's schema" (fun () ->
        let dir = fresh_dir () in
        let app, store = durable_websubmit dir in
        poison app;
        let conn = Apps.Websubmit.conn app in
        let live =
          Db.Table.schema (Option.get (Db.Database.table (Apps.Websubmit.database app) "answers"))
        in
        let staged = ref [] in
        Sesame_conn.attach_policy conn ~table:"answers" ~column:"answer" (fun schema ->
            staged := schema :: !staged;
            let email = Db.Schema.column_index_exn schema "email" in
            fun row -> Only.make { who = Db.Value.to_text row.(email) });
        let student0 = "student0@school.edu" in
        (match
           Sesame_request.serve Sesame_request.none (fun () ->
               Sesame_conn.query conn ~context:(Mock.context ~user:student0 ())
                 "SELECT * FROM answers WHERE email = ?"
                 ~params:[ Pcon.wrap_no_policy (Db.Value.Text student0) ])
         with
        | Error e, _ -> Alcotest.failf "%a" Sesame_conn.pp_error e
        | Ok rows, degraded ->
            check_str "served from the snapshot" "snapshot" (Option.value ~default:"" degraded);
            check_bool "rows served" true (rows <> []);
            (match !staged with
            | [ schema ] ->
                check_str "answers" "answers" (Db.Schema.name schema);
                check_bool "not the poisoned store's schema" true (schema != live)
            | l -> Alcotest.failf "staged %d times, expected once" (List.length l));
            List.iter
              (fun row ->
                let policy = Pcon.policy (Pcon_row.get row "answer") in
                check_bool "author admitted" true
                  (Policy.check policy (Mock.context ~user:student0 ()));
                check_bool "others denied" false
                  (Policy.check policy (Mock.context ~user:"student1@school.edu" ())))
              rows);
        ignore (Wal.Durable.close store));
  ]

let () =
  Alcotest.run "faults"
    [
      ("injector", injector_tests);
      ("matrix", matrix_tests);
      ("wal-matrix", wal_matrix_tests);
      ("overload-matrix", overload_matrix_tests);
      ("hardening-matrix", hardening_matrix_tests);
      ("retry", retry_tests);
      ("breaker", breaker_tests);
      ("fail-closed", failclosed_tests);
      ("brownout-staging", brownout_staging_tests);
    ]
