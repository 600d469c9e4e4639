(* Deadline propagation and degraded-mode serving: unit tests for the
   budget itself, in-process propagation into the DB scan / write
   admission / sandbox layers, and socket tests proving the server edge
   stamps budgets, sheds mutations before reads under overload, and
   serves read-only over the snapshot while the store is poisoned. The
   full storm (seeded load, two servers, cross-phase gates) lives in
   [bench/main.exe chaos]; this suite is the deterministic tier-1 core. *)

module D = Sesame_deadline
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
                check_bool "guard admits" true (D.guard "replay" = Ok ()));
            check_bool "reinstated" true (D.expired_now ())));
    test "refusals are structured, classifiable, and never transient" (fun () ->
        D.with_deadline (D.after_ms 0) (fun () ->
            match D.guard "db scan" with
            | Ok () -> Alcotest.fail "expired budget admitted"
            | Error msg ->
                check_bool "carries the marker" true (D.is_deadline_error msg);
                check_bool "marker is the prefix" true
                  (String.length msg >= String.length D.marker
                  && String.sub msg 0 (String.length D.marker) = D.marker);
                check_bool "names the layer" true (contains msg "db scan");
                (* A missed budget must never be retried: the client's
                   time is the one resource a retry cannot refund. *)
                check_bool "not transient" false (C.Sesame_conn.is_transient_db_message msg));
        check_bool "check raises the same marker" true
          (D.with_deadline (D.after_ms 0) (fun () ->
               match D.check "wal commit" with
               | () -> false
               | exception D.Expired what -> D.is_deadline_error (D.error_message what))));
  ]

(* ------------------------------------------------------------------ *)
(* In-process propagation: the ambient budget reaches the scan loop, the
   write-admission gate, and the sandbox runtime. *)

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

let propagation_tests =
  [
    test "an expired budget cancels a long scan at a checkpoint" (fun () ->
        let db = big_db () in
        (* The budget outlives the entry guard but not the modelled
           statement cost, so expiry is noticed mid-statement — at the
           scan's 256-row checkpoint, not at the door. *)
        let result =
          D.with_deadline (D.after_ms 1) (fun () ->
              Db.Database.exec db "SELECT * FROM grades WHERE grade = ?"
                ~params:[ Db.Value.Int 7 ])
        in
        (match result with
        | Ok _ -> Alcotest.fail "scan outlived its budget"
        | Error msg ->
            check_bool "structured refusal" true (D.is_deadline_error msg);
            check_bool "names the scan" true (contains msg "db scan");
            check_bool "no row data" false (contains msg "school.edu"));
        (* A cancelled scan read nothing wrong and wrote nothing: the
           store stays healthy and the same query completes unbudgeted. *)
        check_bool "not poisoned" true (Db.Database.poisoned db = None);
        match Db.Database.exec db "SELECT * FROM grades WHERE grade = ?" ~params:[ Db.Value.Int 7 ] with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "healthy rerun failed: %s" m);
    test "write admission refuses a late mutation without poisoning" (fun () ->
        let db = big_db () in
        let insert i =
          Db.Database.exec db "INSERT INTO grades (id, email, grade) VALUES (?, ?, ?)"
            ~params:[ Db.Value.Int i; Db.Value.Text "late@school.edu"; Db.Value.Int 0 ]
        in
        (match D.with_deadline (D.after_ms 1) (fun () -> insert 601) with
        | Ok _ -> Alcotest.fail "late write acknowledged"
        | Error msg ->
            check_bool "structured refusal" true (D.is_deadline_error msg);
            check_bool "refused at admission" true (contains msg "wal commit admission"));
        (* Admission strikes before the engine applies anything: memory
           and journal never diverged, so — unlike a mid-journal fault —
           the store is NOT poisoned and the retried write lands. *)
        check_bool "not poisoned" true (Db.Database.poisoned db = None);
        match insert 601 with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "retried write failed: %s" m);
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
    test "an expired budget stops a wide conjunction before its tail" (fun () ->
        let conj = C.Policy.conjoin_all (List.init 500 (fun i -> Allow_all.make i)) in
        let ctx = C.Mock.context ~user:"student0@school.edu" () in
        C.Policy.reset_check_count ();
        (match D.with_deadline (D.after_ms 0) (fun () -> C.Enforce.check_verbose conj ctx) with
        | Ok () -> Alcotest.fail "conjunction outlived its budget"
        | Error msg -> check_bool "structured refusal" true (D.is_deadline_error msg));
        check_bool "stopped before the tail" true (C.Policy.check_count () < 500);
        (* The refusal belongs to the budget: unbudgeted, the same check allows. *)
        check_bool "allows unbudgeted" true (C.Enforce.check conj ctx));
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
let degraded headers = Http.Headers.get headers Http.Serving.header_name

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
            (* Recovery swaps in a fresh store: reads lose the marker,
               writes acknowledge again. *)
            let recovered =
              match Apps.Websubmit.recover app with
              | Ok store' -> store'
              | Error m -> Alcotest.failf "recovery failed: %s" m
            in
            Fun.protect ~finally:(fun () -> ignore (Sesame_wal.Durable.close recovered))
            @@ fun () ->
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
