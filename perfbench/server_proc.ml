(* The server process: sets up the system under test, serves it over a
   real socket, and answers control commands from the client on stdin
   (one per line, each answered with one line on stdout):

   - [mark]: every layer's public counters, as [key=value] pairs;
   - [trace on], [trace off]: start or stop recording spans around the
     mux's calls;
   - [probe sandbox|nosandbox]: re-issue each endpoint's SQL through the
     connector and the bare database, time WebSubmit's router build, and
     with [sandbox] run Retrain directly, recording the sandbox's per-run
     timings;
   - [spans <file>]: write the recorded spans to [file].

   EOF on stdin stops the server, closes the durable store and exits. *)

module Http = Sesame_http
module Apps = Sesame_apps
module C = Sesame_core
module Db = Sesame_db
module Sbx = Sesame_sandbox
module Wal = Sesame_wal

(* One handler domain: the client drives one closed-loop connection, and
   the server's handler domains never outnumber its connections. *)
let handler_domains = 1

let server_config =
  { Sesame_server.default_config with Sesame_server.domains = handler_domains; autoscale = None }

let reply fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

let mark (f : Fixture.t) server =
  let s = Sesame_server.stats server in
  let e = C.Enforce.stats () in
  let p = Sbx.Pool.stats f.Fixture.hardening.Apps.Websubmit.sandbox_pool in
  let g = Gc.quick_stat () in
  let statements = List.fold_left (fun n db -> n + Db.Database.query_count db) 0 (Fixture.databases f) in
  reply
    "served=%d shed=%d parse_errors=%d timeouts=%d enforce_hits=%d enforce_misses=%d elisions=%d \
     pushdowns=%d statements=%d pool_acquired=%d pool_reused=%d pool_poisoned=%d minor_words=%.0f \
     major_collections=%d top_heap_words=%d"
    s.served s.shed s.parse_errors s.timeouts e.hits e.misses e.elisions e.pushdowns statements
    p.acquired p.reused p.poisoned g.Gc.minor_words
    g.Gc.major_collections g.Gc.top_heap_words

(* ------------------------------------------------------------------ *)
(* Spans around the mux's calls. *)

let request_id (request : Http.Request.t) =
  match Http.Request.header request "x-bench-id" with
  | Some v -> Option.value (int_of_string_opt v) ~default:0
  | None -> 0

let record_sandbox rec_ ws ~req =
  match C.Region.Sandboxed.last_timings (Apps.Websubmit.sandbox_train_region ws) with
  | None -> ()
  | Some (tm : Sbx.Runtime.timings) ->
      Spans.value rec_ "sandbox.setup" ~req tm.setup_s;
      Spans.value rec_ "sandbox.copy_in" ~req tm.copy_in_s;
      Spans.value rec_ "sandbox.exec" ~req tm.exec_s;
      Spans.value rec_ "sandbox.copy_out" ~req tm.copy_out_s

(* The WAL's counters restart whenever a checkpoint reopens the log, so
   they are sampled around each request: appends from the LSN, which
   never restarts; fsyncs and flushes only when no checkpoint intervened. *)
let record_wal rec_ (store : Wal.Durable.t) ~req f =
  let lsn0 = Wal.Durable.next_lsn store and ckpt0 = Wal.Durable.checkpoint_lsn store in
  let c0 = Wal.Durable.commit_stats store in
  let v = f () in
  let lsn1 = Wal.Durable.next_lsn store in
  if lsn1 > lsn0 then begin
    Spans.value rec_ "wal.appends" ~req (Int64.to_float (Int64.sub lsn1 lsn0));
    if Wal.Durable.checkpoint_lsn store <> ckpt0 then Spans.value rec_ "wal.checkpoint" ~req 1.0
    else begin
      let c1 = Wal.Durable.commit_stats store in
      Spans.value rec_ "wal.fsyncs" ~req (float_of_int (c1.fsyncs - c0.fsyncs));
      Spans.value rec_ "wal.flushes" ~req (float_of_int (c1.flushes - c0.flushes))
    end
  end;
  v

(* [app.handle] is a child of the client's [client.request] span for the
   same request, whose id is the request id (see [Spans.request_span]). *)
let traced_handler rec_ (f : Fixture.t) (request : Http.Request.t) =
  let req = request_id request in
  record_wal rec_ f.Fixture.store ~req @@ fun () ->
  let response =
    Spans.span rec_ "app.handle" ~req ~parent:(Spans.request_span req) (fun _ -> Fixture.handle f request)
  in
  if request.Http.Request.path = "/websubmit/retrain" then record_sandbox rec_ f.Fixture.websubmit ~req;
  Spans.span rec_ "wire.serialize" ~req ~parent:Spans.no_parent (fun _ ->
      ignore (Sys.opaque_identity (Http.Wire.write_response ~keep_alive:true response)));
  response

(* ------------------------------------------------------------------ *)
(* Per-endpoint query probes: the endpoint's SQL and context, through the
   connector (policies enforced) and through the bare database. *)

let probe_reps = 5

(* Router builds are a few microseconds each, so they are timed in bulk. *)
let router_reps = 1000

let probe rec_ (f : Fixture.t) ~sandbox =
  let ws = f.Fixture.websubmit in
  let conn = Apps.Websubmit.conn ws and db = Apps.Websubmit.database ws in
  let context ?custom ~user path =
    C.Sesame_web.context_for (Http.Request.make Http.Meth.GET path) ~user ?custom ()
  in
  let wrap v = C.Pcon.wrap_no_policy v in
  let student = Apps.Websubmit_schema.student_email 42 in
  let answer_id = Workload.answer_id 42 17 in
  let employer_ctx = context ~custom:[ ("role", "employer") ] ~user:"recruiter@corp.com" "/employer" in
  let ignore_conn = function Ok _ -> () | Error _ -> failwith "probe: connector query failed" in
  let ignore_db = function Ok _ -> () | Error m -> failwith ("probe: " ^ m) in
  let endpoints =
    [
      ( "view",
        (fun () ->
          ignore_conn
            (C.Sesame_conn.query conn ~context:(context ~user:student "/view")
               "SELECT * FROM answers WHERE id = ? AND email = ?"
               ~params:[ wrap (Db.Value.Int answer_id); wrap (Db.Value.Text student) ])),
        fun () ->
          ignore_db
            (Db.Database.exec db "SELECT * FROM answers WHERE id = ? AND email = ?"
               ~params:[ Db.Value.Int answer_id; Db.Value.Text student ]) );
      ( "aggregates",
        (fun () ->
          ignore_conn
            (C.Sesame_conn.query_agg conn ~context:(context ~user:"admin@school.edu" "/aggregates")
               "SELECT AVG(grade), COUNT(grade) FROM answers GROUP BY lecture" ~params:[])),
        fun () ->
          ignore_db
            (Db.Database.exec db "SELECT AVG(grade), COUNT(grade) FROM answers GROUP BY lecture"
               ~params:[]) );
      ( "employer",
        (* The endpoint's consenting-users query, then one answers query per
           released user, as /employer issues them. *)
        (fun () ->
          match
            C.Sesame_conn.query conn ~context:employer_ctx "SELECT * FROM users WHERE consent_employer = ?"
              ~params:[ wrap (Db.Value.Bool true) ]
          with
          | Error _ -> failwith "probe: employer users"
          | Ok users ->
              List.iter
                (fun row ->
                  let email = C.Pcon.Internal.map (fun e -> Db.Value.Text e) (C.Pcon_row.text row "email") in
                  ignore_conn
                    (C.Sesame_conn.query conn ~context:employer_ctx "SELECT * FROM answers WHERE email = ?"
                       ~params:[ email ]))
                users),
        fun () ->
          match
            Db.Database.exec db "SELECT email FROM users WHERE consent_employer = ?"
              ~params:[ Db.Value.Bool true ]
          with
          | Ok (Db.Database.Rows { rows; _ }) ->
              List.iter
                (fun row ->
                  ignore_db (Db.Database.exec db "SELECT * FROM answers WHERE email = ?" ~params:[ row.(0) ]))
                rows
          | _ -> failwith "probe: employer users" );
      ( "retrain",
        (fun () ->
          ignore_conn
            (C.Sesame_conn.query_filtered conn
               ~context:(C.Context.with_sink (context ~user:"admin@school.edu" "/retrain") "ml::train")
               ~on:"grade" "SELECT * FROM answers WHERE grade IS NOT NULL" ~params:[])),
        fun () ->
          ignore_db (Db.Database.exec db "SELECT * FROM answers WHERE grade IS NOT NULL" ~params:[]) );
    ]
  in
  List.iter
    (fun (name, via_conn, via_db) ->
      via_conn ();
      via_db ();
      for _ = 1 to probe_reps do
        Spans.span rec_ ("conn.query." ^ name) ~req:0 ~parent:Spans.no_parent (fun _ -> via_conn ());
        Spans.span rec_ ("db.exec." ^ name) ~req:0 ~parent:Spans.no_parent (fun _ -> via_db ())
      done)
    endpoints;
  (* WebSubmit's public [router], the build its [handle] repeats on every
     request. *)
  for _ = 1 to router_reps do
    Spans.span rec_ "router.build" ~req:0 ~parent:Spans.no_parent (fun _ ->
        ignore (Sys.opaque_identity (Apps.Websubmit.router ws)))
  done;
  if sandbox then
    for _ = 1 to probe_reps do
      let request =
        Http.Request.make ~headers:(Http.Headers.of_list [ ("Cookie", Workload.admin) ]) Http.Meth.POST "/retrain"
      in
      let r = Apps.Websubmit.retrain_model ws request in
      if Http.Status.to_int r.Http.Response.status <> 200 then
        failwith (Printf.sprintf "probe: retrain answered %d" (Http.Status.to_int r.Http.Response.status));
      record_sandbox rec_ ws ~req:0
    done

(* ------------------------------------------------------------------ *)

let main ~data_dir =
  let time f =
    let t0 = Sesame_clock.now_ns () in
    let v = f () in
    (v, Sesame_clock.elapsed_s ~since:t0)
  in
  let hardening, preflight_s = time (fun () -> Fixture.harden ~domains:handler_domains) in
  let f, create_s = time (fun () -> Fixture.create ~hardening ~data_dir) in
  let (), seed_s = time (fun () -> Fixture.seed f) in
  let rec_ = Spans.create_from Spans.server_ids in
  let tracing = Atomic.make false in
  let handler request =
    if Atomic.get tracing then traced_handler rec_ f request else Fixture.handle f request
  in
  let server =
    match Sesame_server.start ~config:server_config ~on_error:prerr_endline ~handler () with
    | Ok s -> s
    | Error m -> failwith ("server: " ^ m)
  in
  reply "ready port=%d preflight_s=%.6f create_s=%.6f seed_s=%.6f" (Sesame_server.port server)
    preflight_s create_s seed_s;
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | "mark" ->
        mark f server;
        loop ()
    | ("trace on" | "trace off") as cmd ->
        Atomic.set tracing (cmd = "trace on");
        reply "ok";
        loop ()
    | ("probe sandbox" | "probe nosandbox") as cmd ->
        probe rec_ f ~sandbox:(cmd = "probe sandbox");
        reply "ok";
        loop ()
    | cmd when String.length cmd > 6 && String.sub cmd 0 6 = "spans " ->
        let oc = open_out (String.sub cmd 6 (String.length cmd - 6)) in
        Spans.write_channel oc rec_;
        close_out oc;
        reply "ok";
        loop ()
    | cmd -> failwith ("server: unknown command " ^ cmd)
  in
  loop ();
  Sesame_server.stop server;
  match Wal.Durable.close f.Fixture.store with Ok () -> () | Error m -> failwith ("close: " ^ m)
