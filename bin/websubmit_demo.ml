(* A driveable WebSubmit instance: seeds the course, then reads simple
   request lines from stdin and dispatches them through the in-process
   router. Useful for poking at the policy checks by hand.

     dune exec bin/websubmit_demo.exe -- --students 20 --questions 3

   Request syntax, one per line:
     [user@email] METHOD /path[?query] [body]
   e.g.
     student0@school.edu GET /view/1
     admin@school.edu GET /aggregates
     student2@school.edu POST /submit/1/9 answer=hello
     quit *)

module Http = Sesame_http
module Apps = Sesame_apps
module F = Sesame_faults
module Wal = Sesame_wal
module Sbx = Sesame_sandbox
module Sign = Sesame_signing

(* --inject point:action[:nth], e.g. db-query:exhaust or
   copier-decode:corrupt:2. nth defaults to 1 (first traversal); 0 fires
   on every traversal. *)
let parse_inject spec =
  match String.split_on_char ':' spec with
  | point :: rest -> (
      match F.point_of_string point with
      | None -> Error (Printf.sprintf "unknown fault point %S" point)
      | Some point -> (
          let action_spec, nth =
            match rest with
            | [ action ] -> (action, Some 1)
            | [ "delay"; ns ] -> ("delay:" ^ ns, Some 1)
            | [ "delay"; ns; nth ] -> ("delay:" ^ ns, int_of_string_opt nth)
            | [ action; nth ] -> (action, int_of_string_opt nth)
            | _ -> ("", None)
          in
          match (nth, F.action_of_string action_spec) with
          | Some nth, Some action -> Ok (F.plan ~nth point action)
          | _, None -> Error (Printf.sprintf "unknown fault action %S" action_spec)
          | None, _ -> Error (Printf.sprintf "bad fault spec %S" spec)))
  | [] -> Error "empty fault spec"

let dispatch app line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [] -> None
  | [ "quit" ] | [ "exit" ] -> raise Exit
  | parts ->
      let user, rest =
        match parts with
        | u :: rest when String.contains u '@' -> (Some u, rest)
        | rest -> (None, rest)
      in
      (match rest with
      | meth :: target :: body -> (
          match Http.Meth.of_string meth with
          | None -> Some (Http.Response.error Http.Status.Bad_request "unknown method")
          | Some meth ->
              let headers =
                Http.Headers.of_list
                  ((match user with
                   | Some u -> [ ("Cookie", "user=" ^ u) ]
                   | None -> [])
                  @ [ ("Content-Type", "application/x-www-form-urlencoded") ])
              in
              let request =
                Http.Request.make ~headers ~body:(String.concat " " body) meth target
              in
              Some (Apps.Websubmit.handle app request))
      | _ -> Some (Http.Response.error Http.Status.Bad_request "usage: [user] METHOD /path [body]"))

(* --preflight: run the boot-time SFI battery standalone and exit — the
   smoke test a deployment gates pool construction on. Fault plans are
   armed first so an injected preflight-trap-miss demonstrably turns
   into a non-zero exit. *)
let run_preflight plans injects =
  if plans <> [] then begin
    F.arm plans;
    Printf.printf "Fault injection armed: %s.\n%!" (String.concat ", " injects)
  end;
  let report = Sbx.Sfi.run () in
  print_string (Sbx.Preflight.render report);
  Printf.printf "%s\n%!" (Sbx.Preflight.summary report);
  if plans <> [] then F.disarm ();
  if Sbx.Preflight.passed report then 0 else 1

let run students questions injects data_dir fsync checkpoint_every serve_port preflight_only
    harden attest_log =
  let plans =
    List.map
      (fun spec ->
        match parse_inject spec with
        | Ok plan -> plan
        | Error msg ->
            Printf.eprintf "bad --inject: %s\n" msg;
            exit 2)
      injects
  in
  if preflight_only then run_preflight plans injects
  else begin
  (* The ambient recorder must be installed before the app is created:
     region installation appends the approval frames that later runs are
     verified against. *)
  let recorder =
    match attest_log with
    | None -> None
    | Some path -> (
        match Sign.Attest.create_recorder path with
        | Ok r ->
            Sign.Attest.install r;
            Printf.printf "Attesting runs to %s.\n%!" path;
            Some r
        | Error m ->
            Printf.eprintf "failed to open attestation log: %s\n" m;
            exit 1)
  in
  let hardening =
    if not harden then None
    else
      match Apps.Websubmit.harden () with
      | Ok h ->
          Printf.printf "Sandbox hardening on: %s.\n%!" (Sbx.Preflight.summary h.preflight);
          Some h
      | Error m ->
          Printf.eprintf "%s\n" m;
          exit 1
  in
  let started =
    match data_dir with
    | None -> Result.map (fun app -> (app, None)) (Apps.Websubmit.create ?hardening ())
    | Some dir ->
        let durable_config =
          {
            Wal.Durable.sync = (if fsync then Wal.Durable.Fsync else Wal.Durable.No_sync);
            checkpoint_every = (if checkpoint_every <= 0 then None else Some checkpoint_every);
          }
        in
        Result.map
          (fun (app, store) -> (app, Some store))
          (Apps.Websubmit.create_durable ~durable_config ?hardening ~data_dir:dir ())
  in
  match started with
  | Error m ->
      Printf.eprintf "failed to start: %s\n" m;
      1
  | Ok (app, store) -> (
      (* A durable directory that already holds answers was recovered —
         re-seeding would collide with the journaled rows. *)
      let recovered = Apps.Websubmit.answer_count app in
      if recovered > 0 then
        Printf.printf "WebSubmit ready: recovered %d answers from %s.\n%!" recovered
          (Option.value data_dir ~default:"?")
      else begin
        (match Apps.Websubmit.seed app ~students ~questions with
        | Ok () -> ()
        | Error m -> failwith m);
        Printf.printf "WebSubmit ready: %d students x %d questions seeded.\n%!" students
          questions
      end;
      (* Arm only after seeding: the plans should hit the requests typed
         at the prompt, not the fixture's own DB traffic. *)
      if plans <> [] then F.arm plans;
      Printf.printf
        "Principals: studentN@school.edu, admin@school.edu, leader@school.edu.\n\
         Example: student0@school.edu GET /view/1   (quit to exit)\n%!";
      if plans <> [] then
        Printf.printf "Fault injection armed: %s.\n%!" (String.concat ", " injects);
      (* --serve PORT: the same instance, over real sockets, alongside
         the stdin prompt. Both drive the same router and database. *)
      let server =
        match serve_port with
        | None -> None
        | Some port -> (
            let config = { Sesame_server.default_config with Sesame_server.port } in
            match
              Sesame_server.start ~config ~handler:(Apps.Websubmit.handle app) ()
            with
            | Ok server ->
                Printf.printf "Serving HTTP on http://127.0.0.1:%d (e.g. curl -b \
                               user=admin@school.edu http://127.0.0.1:%d/aggregates)\n%!"
                  (Sesame_server.port server) (Sesame_server.port server);
                Some server
            | Error m ->
                Printf.eprintf "failed to serve: %s\n" m;
                exit 1)
      in
      let finish () =
        Option.iter Sesame_server.stop server;
        Option.iter
          (fun r ->
            Sign.Attest.uninstall ();
            Sign.Attest.close_recorder r)
          recorder;
        match store with
        | None -> 0
        | Some store -> (
            match Wal.Durable.close store with
            | Ok () -> 0
            | Error m ->
                Printf.eprintf "durable close failed: %s\n" m;
                1)
      in
      try
        while true do
          print_string "> ";
          let line = read_line () in
          match dispatch app line with
          | None -> ()
          | Some response ->
              Printf.printf "%d %s\n%s\n%!"
                (Http.Status.to_int response.Http.Response.status)
                (Http.Status.reason response.Http.Response.status)
                response.Http.Response.body
        done;
        0
      with Exit | End_of_file -> finish ())
  end

open Cmdliner

let students_arg =
  Arg.(value & opt int 20 & info [ "students" ] ~docv:"N" ~doc:"Students to seed.")

let questions_arg =
  Arg.(value & opt int 3 & info [ "questions" ] ~docv:"N" ~doc:"Questions per student.")

let inject_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "inject" ] ~docv:"POINT:ACTION[:NTH]"
        ~doc:
          "Arm a deterministic fault after seeding, e.g. db-query:exhaust or \
           copier-decode:corrupt:2. NTH=0 fires on every traversal. Repeatable.")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Run durably: journal every write (with its policy provenance) to a \
           WAL + checkpoint store in $(docv), recovering it on startup. A \
           directory that already holds data is recovered instead of re-seeded.")

let fsync_arg =
  Arg.(
    value & opt bool true
    & info [ "fsync" ] ~docv:"BOOL"
        ~doc:
          "With --data-dir: fsync on every commit (true, the strict default) or \
           leave flushing to the OS (false).")

let serve_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Also serve the instance over HTTP on 127.0.0.1:$(docv) (0 picks an \
           ephemeral port). Authenticate with a 'user=EMAIL' cookie. The stdin \
           prompt keeps working; quitting stops the server.")

let preflight_arg =
  Arg.(
    value & flag
    & info [ "preflight" ]
        ~doc:
          "Run the boot-time SFI preflight battery (out-of-bounds, exhaustion, budget, \
           syscall, wipe, and quarantine trap tests) and exit: 0 when every trap was caught, \
           1 otherwise. Honors --inject (e.g. preflight-trap-miss:raise).")

let harden_arg =
  Arg.(
    value & flag
    & info [ "harden" ]
        ~doc:
          "Run both sandboxed regions on a preflighted pool with per-run budgets and a \
           cumulative quota. Refuses to start (fail closed) if any preflight check misses \
           its trap.")

let attest_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "attest-log" ] ~docv:"PATH"
        ~doc:
          "Append a signed attestation frame for every region installation and sandbox run \
           to $(docv). Verify later with scrutinizer --attest-verify $(docv).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 256
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With --data-dir: checkpoint after every N journaled records (0 \
           disables automatic checkpoints).")

let cmd =
  Cmd.v
    (Cmd.info "websubmit-demo" ~version:"1.0" ~doc:"Interactive WebSubmit instance")
    Term.(
      const run $ students_arg $ questions_arg $ inject_arg $ data_dir_arg $ fsync_arg
      $ checkpoint_every_arg $ serve_arg $ preflight_arg $ harden_arg $ attest_log_arg)

let () = exit (Cmd.eval' cmd)
