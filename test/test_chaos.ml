(* Deadline propagation and degraded-mode serving: unit tests for the
   budget itself, in-process propagation into the DB scan / write
   admission / sandbox layers, and socket tests proving the server edge
   stamps budgets, sheds mutations before reads under overload, and
   serves read-only over the snapshot while the store is poisoned. The
   full storm (seeded load, two servers, cross-phase gates) lives in
   [bench/main.exe chaos]; this suite is the deterministic tier-1 core. *)

module D = Sesame_request
module F = Sesame_faults
module Db = Sesame_db
module Sbx = Sesame_sandbox
module Http = Sesame_http
module Apps = Sesame_apps
module Server = Sesame_server
module C = Sesame_core
module Wire = Http.Wire

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

(* A statement cost long enough that a single-digit-millisecond budget
   reliably expires inside the first query, short enough that unbudgeted
   requests stay fast. Matches the modelled DB round trip in the chaos
   benchmark. *)
let query_cost_ns = 3_000_000

(* ------------------------------------------------------------------ *)
(* The budget itself. *)

(* A table big enough that one full scan crosses a checkpoint interval
   (256 slots). *)
let big_db () =
  let db = Db.Database.create ~query_cost_ns () in
  let schema =
    Db.Schema.make_exn ~name:"grades" ~primary_key:"id"
      [
        { name = "id"; ty = Db.Value.Tint; nullable = false };
        { name = "email"; ty = Db.Value.Ttext; nullable = false };
        { name = "grade"; ty = Db.Value.Tint; nullable = false };
      ]
  in
  (match Db.Database.create_table db schema with
  | Ok () -> ()
  | Error m -> failwith m);
  for i = 1 to 600 do
    match
      Db.Database.exec db "INSERT INTO grades (id, email, grade) VALUES (?, ?, ?)"
        ~params:
          [ Db.Value.Int i; Db.Value.Text (Printf.sprintf "s%d@school.edu" i); Db.Value.Int (i mod 100) ]
    with
    | Ok _ -> ()
    | Error m -> failwith m
  done;
  db

let grade_is g =
  Result.get_ok (Db.Sql.parse "SELECT * FROM grades WHERE grade = ?" ~params:[ Db.Value.Int g ])

let admin = C.Mock.context ~user:"admin@school.edu" ()

(* A leaf that allows everything; distinct states keep the conjunction
   from folding. *)
module Allow_all = C.Policy.Make (struct
  type s = int

  let name = "chaos::allow_all"
  let check _ _ = true
  let join = None
  let no_folding = true
  let describe i = "AllowAll " ^ string_of_int i
end)

(* A leaf that allows everything after holding the domain for [ms]
   milliseconds: a slow policy check. *)
module Slow_allow = C.Policy.Make (struct
  type s = int

  let name = "chaos::slow_allow"

  let check ms _ =
    Unix.sleepf (float_of_int ms /. 1000.);
    true

  let join = None
  let no_folding = true
  let describe ms = Printf.sprintf "SlowAllow %dms" ms
end)

let deadline_tests =
  [
    test "none never expires; a zero budget is born expired" (fun () ->
        check_bool "none" false (D.expired D.none);
        check_bool "none is none" true (D.is_none D.none);
        check_bool "infinite" true (D.remaining_s D.none = infinity);
        let spent = D.after_ms 0 in
        check_bool "expired" true (D.expired spent);
        check_bool "not none" false (D.is_none spent);
        check_int "clamped at zero" 0 (D.remaining_ms spent));
    test "the ambient deadline only tightens and always restores" (fun () ->
        check_bool "outside any scope" true (D.is_none (D.current ()));
        D.with_deadline (D.after_s 60.0) (fun () ->
            let outer = D.remaining_s (D.current ()) in
            check_bool "installed" true (outer > 1.0);
            (* A looser nested deadline must NOT loosen the ambient one. *)
            D.with_deadline (D.after_s 3600.0) (fun () ->
                check_bool "still the tighter budget" true
                  (D.remaining_s (D.current ()) <= outer +. 1e-6));
            (* A tighter nested deadline applies, then pops. *)
            D.with_deadline (D.after_ms 0) (fun () ->
                check_bool "tightened" true (D.expired_now ()));
            check_bool "popped back" false (D.expired_now ()));
        check_bool "fully restored" true (D.is_none (D.current ())));
    test "unrestricted suspends the budget for maintenance work" (fun () ->
        D.with_deadline (D.after_ms 0) (fun () ->
            check_bool "expired inside" true (D.expired_now ());
            D.unrestricted (fun () ->
                check_bool "suspended" true (D.is_none (D.current ()));
                check_bool "check admits" true
                  (match D.check "replay" with () -> true | exception D.Expired _ -> false));
            check_bool "reinstated" true (D.expired_now ())));
    test "refusals are structured, classifiable by type, and never transient" (fun () ->
        let db = big_db () in
        (match D.with_deadline (D.after_ms 0) (fun () -> Db.Database.exec_stmt db (grade_is 7)) with
        | Error (Db.Database.Over_budget what as e) ->
            check_str "names the layer" "db statement" what;
            check_bool "the message names it too" true
              (contains (Db.Database.error_message e) "db statement")
        | Error (Db.Database.Transient _) -> Alcotest.fail "a spent budget classified transient"
        | Error e -> Alcotest.failf "not a budget refusal: %s" (Db.Database.error_message e)
        | Ok _ -> Alcotest.fail "expired budget admitted");
        (* A missed budget must never be retried: the client's time is
           the one resource a retry cannot refund. The budget outlives
           the sink's entry check but not the 3 ms statement, so the
           refusal comes from the store's scan. *)
        let conn = C.Sesame_conn.create db in
        (match
           D.with_deadline (D.after_ms 2) (fun () ->
               C.Sesame_conn.query conn ~context:admin "SELECT * FROM grades WHERE grade = ?"
                 ~params:[ C.Sesame_conn.param conn (Db.Value.Int 7) ])
         with
        | Error (C.Sesame_conn.Deadline_exceeded _) -> ()
        | _ -> Alcotest.fail "expected a deadline refusal");
        let stats = C.Sesame_conn.sink_stats conn "db::query" in
        check_int "never retried" 0 stats.retries;
        check_int "never fed to the breaker" 0 stats.consecutive_failures;
        check_bool "check raises the layer's name" true
          (D.with_deadline (D.after_ms 0) (fun () ->
               match D.check "wal commit" with
               | () -> false
               | exception D.Expired what -> what = "wal commit")));
  ]

(* ------------------------------------------------------------------ *)
(* In-process propagation: the ambient budget reaches the scan loop, the
   write-admission gate, and the sandbox runtime. *)

let propagation_tests =
  [
    test "an expired budget cancels a long scan at a checkpoint" (fun () ->
        let db = big_db () in
        (* The budget outlives the entry guard but not the modelled
           statement cost, so expiry is noticed mid-statement — at the
           scan's 256-row checkpoint, not at the door. *)
        (match D.with_deadline (D.after_ms 1) (fun () -> Db.Database.exec_stmt db (grade_is 7)) with
        | Ok _ -> Alcotest.fail "scan outlived its budget"
        | Error (Db.Database.Over_budget what as e) ->
            check_str "names the scan" "db scan" what;
            check_bool "no row data" false (contains (Db.Database.error_message e) "school.edu")
        | Error e -> Alcotest.failf "not a budget refusal: %s" (Db.Database.error_message e));
        (* A cancelled scan read nothing wrong and wrote nothing: the
           store stays healthy and the same query completes unbudgeted. *)
        check_bool "not poisoned" true (Db.Database.poisoned db = None);
        match Db.Database.exec db "SELECT * FROM grades WHERE grade = ?" ~params:[ Db.Value.Int 7 ] with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "healthy rerun failed: %s" m);
    test "write admission refuses a late mutation without poisoning" (fun () ->
        let db = big_db () in
        let insert i =
          Db.Database.exec_stmt db
            (Db.Sql.Insert
               {
                 table = "grades";
                 columns = Some [ "id"; "email"; "grade" ];
                 values = [ Db.Value.Int i; Db.Value.Text "late@school.edu"; Db.Value.Int 0 ];
               })
        in
        (match D.with_deadline (D.after_ms 1) (fun () -> insert 601) with
        | Ok _ -> Alcotest.fail "late write acknowledged"
        | Error (Db.Database.Over_budget what) ->
            check_str "refused at admission" "wal commit admission" what
        | Error e -> Alcotest.failf "not a budget refusal: %s" (Db.Database.error_message e));
        (* Admission strikes before the engine applies anything: memory
           and journal never diverged, so — unlike a mid-journal fault —
           the store is NOT poisoned and the retried write lands. *)
        check_bool "not poisoned" true (Db.Database.poisoned db = None);
        match insert 601 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "retried write failed: %s" (Db.Database.error_message e));
    test "a sandbox run cannot outlive the request budget" (fun () ->
        let config =
          Sbx.Runtime.config ~mode:Sbx.Runtime.Naive ~arena_size:(64 * 1024) ()
        in
        let guest v =
          (* Tick on the loop back-edge, as real guests do. *)
          for _ = 1 to 1000 do
            Sbx.Runtime.tick ()
          done;
          v
        in
        (* Unbudgeted control run: the guest itself is fine. *)
        (match (Sbx.Runtime.run config ~input:(Sbx.Value.Int 7) ~f:guest).Sbx.Runtime.status with
        | Sbx.Runtime.Ok _ -> ()
        | Sbx.Runtime.Trapped trap ->
            Alcotest.failf "control run trapped: %s" (Sbx.Runtime.trap_message trap));
        (* The same run under a spent request budget traps — the region's
           own (absent) budget is capped by the ambient deadline. *)
        match
          D.with_deadline (D.after_ms 0) (fun () ->
              (Sbx.Runtime.run config ~input:(Sbx.Value.Int 7) ~f:guest).Sbx.Runtime.status)
        with
        | Sbx.Runtime.Trapped (Sbx.Runtime.Deadline_exceeded _) -> ()
        | Sbx.Runtime.Trapped trap ->
            Alcotest.failf "wrong trap: %s" (Sbx.Runtime.trap_message trap)
        | Sbx.Runtime.Ok _ -> Alcotest.fail "sandbox run outlived the request budget");
    test "a sandbox run restores the ambient deadline it tightened" (fun () ->
        let config =
          Sbx.Runtime.config ~mode:Sbx.Runtime.Naive ~arena_size:(64 * 1024)
            ~budget:(Sbx.Runtime.budget ~deadline_s:0.005 ())
            ()
        in
        D.with_deadline (D.after_s 60.0) (fun () ->
            let before = D.current () in
            let inside = ref D.none in
            let guest v =
              inside := D.current ();
              v
            in
            let run = Sbx.Runtime.run config ~input:(Sbx.Value.Int 7) ~f:guest in
            (match run.Sbx.Runtime.status with
            | Sbx.Runtime.Ok _ -> ()
            | Sbx.Runtime.Trapped trap ->
                Alcotest.failf "run trapped: %s" (Sbx.Runtime.trap_message trap));
            check_bool "the guest ran under the run's budget" true (D.remaining_s !inside < 1.0);
            check_bool "the ambient deadline is what it was" true (D.current () = before)));
    test "a nested sandbox run cannot extend the outer run's deadline" (fun () ->
        let config deadline_s =
          Sbx.Runtime.config ~mode:Sbx.Runtime.Naive ~arena_size:(64 * 1024)
            ~budget:(Sbx.Runtime.budget ~deadline_s ())
            ()
        in
        let outer_deadline = ref D.none and inner_deadline = ref D.none in
        let inner_status = ref None and after_inner = ref D.none in
        let inner v =
          inner_deadline := D.current ();
          (* Tick until the deadline traps, bounded in case it never does. *)
          let stop = Unix.gettimeofday () +. 5.0 in
          while Unix.gettimeofday () < stop do
            Sbx.Runtime.tick ()
          done;
          v
        in
        let outer v =
          outer_deadline := D.current ();
          inner_status :=
            Some (Sbx.Runtime.run (config 60.0) ~input:v ~f:inner).Sbx.Runtime.status;
          after_inner := D.current ();
          v
        in
        ignore (Sbx.Runtime.run (config 0.05) ~input:(Sbx.Value.Int 7) ~f:outer);
        check_bool "the inner run's deadline is no later than the outer's" true
          (compare !inner_deadline !outer_deadline <= 0);
        check_bool "the outer deadline is back after the inner run" true
          (!after_inner = !outer_deadline);
        match !inner_status with
        | Some (Sbx.Runtime.Trapped (Sbx.Runtime.Deadline_exceeded { limit_s })) ->
            check_bool "reported against the outer budget" true (limit_s <= 0.05)
        | Some (Sbx.Runtime.Trapped trap) ->
            Alcotest.failf "wrong trap: %s" (Sbx.Runtime.trap_message trap)
        | Some (Sbx.Runtime.Ok _) -> Alcotest.fail "the inner run outlived the outer budget"
        | None -> Alcotest.fail "the outer guest never ran the inner run");
    test "an expired budget stops a wide conjunction before its tail" (fun () ->
        let conj = C.Policy.conjoin_all (List.init 500 (fun i -> Allow_all.make i)) in
        let ctx = C.Mock.context ~user:"student0@school.edu" () in
        C.Policy.reset_check_count ();
        (match D.with_deadline (D.after_ms 0) (fun () -> C.Enforce.check_verbose conj ctx) with
        | Ok () -> Alcotest.fail "conjunction outlived its budget"
        | Error msg -> Alcotest.failf "a spent budget read as a verdict: %s" msg
        | exception D.Expired what -> check_str "names the walk" "policy conjunction" what);
        check_bool "stopped before the tail" true (C.Policy.check_count () < 500);
        (* The refusal belongs to the budget: unbudgeted, the same check allows. *)
        check_bool "allows unbudgeted" true (C.Enforce.check conj ctx));
    test "a post-hoc filter that runs out of budget is refused, not shortened" (fun () ->
        let db = big_db () in
        Db.Database.set_query_cost_ns db 0;
        let conn = C.Sesame_conn.create db in
        (* The first member outlives the budget, so the walk expires
           before the second: no row's verdict was reached. *)
        let conj = C.Policy.conjoin_all [ Slow_allow.make 10; Allow_all.make 0 ] in
        C.Sesame_conn.attach_policy conn ~table:"grades" ~column:"grade" (fun _ _ -> conj);
        match
          D.with_deadline (D.after_ms 5) (fun () ->
              C.Sesame_conn.query_filtered conn ~context:admin ~on:"grade" "SELECT * FROM grades"
                ~params:[])
        with
        | Error (C.Sesame_conn.Deadline_exceeded { sink; _ }) -> check_str "at the query" "db::query" sink
        | Error e -> Alcotest.failf "wrong error: %a" C.Sesame_conn.pp_error e
        | Ok rows -> Alcotest.failf "answered %d rows over budget" (List.length rows));
    test "an HTTP sink that runs out of budget answers 503, not a denial" (fun () ->
        let conj = C.Policy.conjoin_all (List.init 8 (fun i -> Allow_all.make i)) in
        let secret = C.Pcon.Internal.make conj "secret" in
        let template = Http.Template.compile_exn "{{x}}" in
        let sinks =
          [
            ( "render",
              fun () ->
                C.Sesame_web.render ~context:admin template [ ("x", C.Sesame_web.Sensitive secret) ] );
            ("respond_text", fun () -> C.Sesame_web.respond_text ~context:admin secret);
            ( "set_cookie",
              fun () ->
                C.Sesame_web.set_cookie ~context:admin (Http.Response.text "ok") ~name:"k"
                  ~value:secret );
          ]
        in
        List.iter
          (fun (name, sink) ->
            match D.with_deadline (D.after_ms 0) sink with
            | Ok _ -> Alcotest.failf "%s released over budget" name
            | Error e ->
                let r = C.Sesame_web.error_response e in
                check_int (name ^ ": 503") 503 (Http.Status.to_int r.Http.Response.status);
                check_bool (name ^ ": Retry-After") true
                  (Http.Headers.get r.Http.Response.headers "Retry-After" <> None);
                check_str (name ^ ": body") "request deadline exceeded" r.Http.Response.body;
                check_bool (name ^ ": no data") false (contains r.Http.Response.body "secret"))
          sinks;
        (* Unbudgeted, every sink releases. *)
        List.iter (fun (name, sink) -> check_bool name true (Result.is_ok (sink ()))) sinks);
  ]

(* ------------------------------------------------------------------ *)
(* The server edge, over real sockets. *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

let source_of_fd fd =
  let buf = Bytes.create 4096 in
  Wire.source_of_fun (fun () ->
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ""
      | n -> Bytes.sub_string buf 0 n)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One request on a fresh connection; returns (status, headers, body). *)
let call ~port ?(headers = []) ?(body = "") meth path =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
  let headers = Http.Headers.of_list (("Connection", "close") :: headers) in
  write_all fd (Wire.write_request ~headers ~body ~host:"127.0.0.1" meth path);
  match Wire.read_response (source_of_fd fd) with
  | `Response (status, headers, body) -> (status, headers, body)
  | `Eof -> Alcotest.fail "connection closed before a response arrived"
  | `Error e -> Alcotest.fail ("client parse error: " ^ Wire.error_message e)

let retry_after headers = Http.Headers.get headers "Retry-After"
let degraded headers = Http.Headers.get headers Sesame_server.degraded_header

let seeded_websubmit ?data_dir () =
  F.disarm ();
  match data_dir with
  | None ->
      let app = Result.get_ok (Apps.Websubmit.create ~query_cost_ns ()) in
      (match Apps.Websubmit.seed app ~students:20 ~questions:2 with
      | Ok () -> ()
      | Error m -> failwith m);
      Apps.Email.clear_outbox ();
      (app, None)
  | Some dir -> (
      match Apps.Websubmit.create_durable ~query_cost_ns ~data_dir:dir () with
      | Error m -> failwith m
      | Ok (app, store) ->
          (match Apps.Websubmit.seed app ~students:20 ~questions:2 with
          | Ok () -> ()
          | Error m -> failwith m);
          Apps.Email.clear_outbox ();
          (app, Some store))

let with_app_server ?(config = Server.default_config) app f =
  let config = { config with Server.domains = 3 } in
  match
    Server.start ~config
      ~on_error:(fun _ -> ())
      ~handler:(fun request -> Apps.Websubmit.handle app request)
      ()
  with
  | Error m -> Alcotest.fail ("server start: " ^ m)
  | Ok t -> Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let admin_cookie = ("Cookie", "user=admin@school.edu")
let student_cookie = ("Cookie", "user=student0@school.edu")
let form = ("Content-Type", "application/x-www-form-urlencoded")

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let server_tests =
  [
    test "a client budget too small for one statement is a 503 + Retry-After" (fun () ->
        let app, _ = seeded_websubmit () in
        with_app_server app (fun t ->
            let port = Server.port t in
            (* Unbudgeted control: the endpoint serves. *)
            let status, _, _ = call ~port ~headers:[ admin_cookie ] Http.Meth.GET "/aggregates" in
            check_int "healthy" 200 status;
            (* One millisecond cannot cover a 3 ms statement: refused as
               soon as a layer consults the budget, never a hang. *)
            let status, headers, body =
              call ~port
                ~headers:[ admin_cookie; ("X-Deadline-Ms", "1") ]
                Http.Meth.GET "/aggregates"
            in
            check_int "refused" 503 status;
            check_bool "tells the client when to retry" true (retry_after headers <> None);
            check_bool "names the budget" true (contains body "deadline");
            check_bool "no aggregate data" false (contains body "school.edu")));
    test "the ceiling caps client-requested budgets" (fun () ->
        let app, _ = seeded_websubmit () in
        let config = { Server.default_config with Server.max_deadline_ms = 1 } in
        with_app_server ~config app (fun t ->
            (* The client asks for a minute; the ceiling grants 1 ms. *)
            let status, headers, _ =
              call ~port:(Server.port t)
                ~headers:[ admin_cookie; ("X-Deadline-Ms", "60000") ]
                Http.Meth.GET "/aggregates"
            in
            check_int "capped and refused" 503 status;
            check_bool "retryable" true (retry_after headers <> None)));
    test "overload sheds mutations before reads; health is always admitted" (fun () ->
        let app, _ = seeded_websubmit () in
        (* Watermark 1: the in-flight request itself counts as an active
           connection, so every mutation sheds — deterministically. *)
        let config =
          { Server.default_config with Server.shed_mutations_at = 1; health_paths = [ "/health" ] }
        in
        with_app_server ~config app (fun t ->
            let port = Server.port t in
            let status, headers, body =
              call ~port
                ~headers:[ student_cookie; form ]
                ~body:"answer=chaos" Http.Meth.POST "/submit/1/9001"
            in
            check_int "mutation shed" 503 status;
            check_bool "retryable" true (retry_after headers <> None);
            check_bool "says why" true (contains body "mutations shed");
            let status, _, _ = call ~port ~headers:[ admin_cookie ] Http.Meth.GET "/aggregates" in
            check_int "reads still serve" 200 status;
            (* Health probes bypass admission even as mutations: an
               overloaded server must stay observable. The app 404s the
               path, which proves the request reached the handler rather
               than the shed gate. *)
            let status, _, _ = call ~port Http.Meth.POST "/health" in
            check_bool "health probe admitted" true (status <> 503);
            check_bool "counted" true ((Server.stats t).Server.mutations_shed >= 1)));
    test "brownout over sockets: degraded reads, refused writes, recovery" (fun () ->
        let dir = Filename.concat (Filename.get_temp_dir_name ()) "sesame-chaos-test" in
        rm_rf dir;
        let app, store = seeded_websubmit ~data_dir:dir () in
        with_app_server app (fun t ->
            let port = Server.port t in
            (* Poison the store through a WAL append fault. *)
            F.arm [ F.plan ~nth:0 F.Db_wal_append F.Raise ];
            let status, _, _ =
              call ~port
                ~headers:[ student_cookie; form ]
                ~body:"answer=chaos" Http.Meth.POST "/submit/1/9002"
            in
            F.disarm ();
            check_bool "poisoning write refused" true (status >= 400);
            (* Reads brown out to the snapshot, marked degraded on the
               wire so clients and dashboards can tell stale from fresh. *)
            let status, headers, _ =
              call ~port ~headers:[ admin_cookie ] Http.Meth.GET "/aggregates"
            in
            check_int "degraded read serves" 200 status;
            check_str "marked on the wire" "snapshot"
              (Option.value ~default:"" (degraded headers));
            (* Writes are structured read-only refusals, not 500s. *)
            let status, headers, body =
              call ~port
                ~headers:[ admin_cookie; form ]
                ~body:"answer=chaos" Http.Meth.POST "/submit/1/9003"
            in
            check_int "write refused while degraded" 503 status;
            check_bool "retryable" true (retry_after headers <> None);
            check_bool "says read-only" true (contains body "read-only");
            (* Recovery refills the store in place: reads lose the
               marker, writes acknowledge again. *)
            (match Sesame_wal.Durable.reopen (Option.get store) with
            | Ok () -> ()
            | Error m -> Alcotest.failf "recovery failed: %s" m);
            let status, headers, _ =
              call ~port ~headers:[ admin_cookie ] Http.Meth.GET "/aggregates"
            in
            check_int "fresh read serves" 200 status;
            check_bool "no degraded marker" true (degraded headers = None);
            let status, _, _ =
              call ~port
                ~headers:[ student_cookie; form ]
                ~body:"answer=chaos" Http.Meth.POST "/submit/1/9004"
            in
            check_int "writes acknowledge again" 201 status);
        Option.iter (fun s -> ignore (Sesame_wal.Durable.close s)) store;
        rm_rf dir);
    test "the degraded mark belongs to one request, not its connection" (fun () ->
        let dir = Filename.concat (Filename.get_temp_dir_name ()) "sesame-chaos-keepalive" in
        rm_rf dir;
        let app, store = seeded_websubmit ~data_dir:dir () in
        with_app_server app (fun t ->
            let port = Server.port t in
            F.arm [ F.plan ~nth:0 F.Db_wal_append F.Raise ];
            let status, _, _ =
              call ~port
                ~headers:[ student_cookie; form ]
                ~body:"answer=chaos" Http.Meth.POST "/submit/1/9005"
            in
            F.disarm ();
            check_bool "poisoning write refused" true (status >= 400);
            (* Both requests on one keep-alive connection, so one handler
               domain serves them back to back. *)
            let fd = connect port in
            Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
            let src = source_of_fd fd in
            let get headers path =
              write_all fd
                (Wire.write_request ~headers:(Http.Headers.of_list headers) ~host:"127.0.0.1"
                   Http.Meth.GET path);
              match Wire.read_response src with
              | `Response (status, headers, _) -> (status, headers)
              | `Eof -> Alcotest.fail "connection closed before a response arrived"
              | `Error e -> Alcotest.fail ("client parse error: " ^ Wire.error_message e)
            in
            let status, headers = get [ admin_cookie ] "/aggregates" in
            check_int "degraded read serves" 200 status;
            check_str "marked" "snapshot" (Option.value ~default:"" (degraded headers));
            let _, headers = get [ ("Connection", "close") ] "/health" in
            check_bool "the next request is not marked" true (degraded headers = None));
        Option.iter (fun s -> ignore (Sesame_wal.Durable.close s)) store;
        rm_rf dir);
    test "expired in-flight budgets refuse rather than hang under load" (fun () ->
        let app, _ = seeded_websubmit () in
        with_app_server app (fun t ->
            let port = Server.port t in
            (* A small storm of budgeted requests from several domains:
               every one must resolve — 200 or a structured 503 — with
               no hangs and no transport errors. *)
            let client () =
              let outcomes = ref [] in
              for _ = 1 to 4 do
                let status, headers, _ =
                  call ~port
                    ~headers:[ admin_cookie; ("X-Deadline-Ms", "1") ]
                    Http.Meth.GET "/aggregates"
                in
                outcomes := (status, retry_after headers <> None) :: !outcomes
              done;
              !outcomes
            in
            let domains = List.init 4 (fun _ -> Domain.spawn client) in
            let outcomes = List.concat_map Domain.join domains in
            check_int "all resolved" 16 (List.length outcomes);
            List.iter
              (fun (status, has_retry) ->
                check_bool "resolved as 200 or 503" true (status = 200 || status = 503);
                if status = 503 then check_bool "503 carries Retry-After" true has_retry)
              outcomes;
            check_bool "the storm was actually refused" true
              (List.exists (fun (s, _) -> s = 503) outcomes)));
  ]

let () =
  (* Fault plans are process-global; make sure nothing stays armed. *)
  Fun.protect ~finally:F.disarm @@ fun () ->
  Alcotest.run "chaos"
    [
      ("deadline", deadline_tests);
      ("propagation", propagation_tests);
      ("server", server_tests);
    ]
