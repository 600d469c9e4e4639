(* The serving layer: wire-parser torture tests (split reads, pipelining,
   size caps, malformed input) driven from strings, and end-to-end socket
   tests against a live Sesame_server (keep-alive, shedding, timeouts,
   redacted 500s). *)

open Sesame_http
module Server = Sesame_server

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let explode s = List.init (String.length s) (fun i -> String.make 1 s.[i])

let expect_request = function
  | `Request (incoming : Wire.incoming) -> incoming
  | `Eof -> Alcotest.fail "unexpected EOF"
  | `Error e -> Alcotest.fail ("unexpected parse error: " ^ Wire.error_message e)

let expect_error = function
  | `Request _ -> Alcotest.fail "expected a parse error, got a request"
  | `Eof -> Alcotest.fail "expected a parse error, got EOF"
  | `Error e -> e

let simple_get = "GET /a/b?x=1&y=two HTTP/1.1\r\nHost: localhost\r\n\r\n"

let post_with_body =
  "POST /submit HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
  ^ "application/x-www-form-urlencoded\r\nContent-Length: 9\r\n\r\nanswer=42"

(* ------------------------------------------------------------------ *)
(* Wire parser torture. *)

let wire_parse_tests =
  [
    test "simple GET parses" (fun () ->
        let inc = expect_request (Wire.read_request (Wire.source_of_string simple_get)) in
        check_bool "meth" true (Meth.equal inc.Wire.request.Request.meth Meth.GET);
        check_str "path" "/a/b" inc.Wire.request.Request.path;
        check_bool "query" true (Request.query_param inc.Wire.request "y" = Some "two");
        check_bool "keep-alive" true inc.Wire.keep_alive);
    test "split reads: one byte per read()" (fun () ->
        let inc =
          expect_request (Wire.read_request (Wire.source_of_strings (explode post_with_body)))
        in
        check_str "body" "answer=42" inc.Wire.request.Request.body;
        check_bool "form" true (Request.form_param inc.Wire.request "answer" = Some "42"));
    test "split reads: every two-chunk split point" (fun () ->
        let n = String.length post_with_body in
        for i = 1 to n - 1 do
          let chunks = [ String.sub post_with_body 0 i; String.sub post_with_body i (n - i) ] in
          let inc = expect_request (Wire.read_request (Wire.source_of_strings chunks)) in
          check_str "body" "answer=42" inc.Wire.request.Request.body
        done);
    test "pipelined requests parse back-to-back from one buffer" (fun () ->
        let src = Wire.source_of_string (simple_get ^ post_with_body ^ simple_get) in
        let a = expect_request (Wire.read_request src) in
        let b = expect_request (Wire.read_request src) in
        let c = expect_request (Wire.read_request src) in
        check_str "a" "/a/b" a.Wire.request.Request.path;
        check_str "b" "/submit" b.Wire.request.Request.path;
        check_str "b body" "answer=42" b.Wire.request.Request.body;
        check_str "c" "/a/b" c.Wire.request.Request.path;
        check_bool "then eof" true (Wire.read_request src = `Eof));
    test "bare LF line endings tolerated" (fun () ->
        let inc =
          expect_request
            (Wire.read_request (Wire.source_of_string "GET /x HTTP/1.1\nHost: h\n\n"))
        in
        check_str "path" "/x" inc.Wire.request.Request.path);
    test "keep-alive defaults per version" (fun () ->
        let ka s = (expect_request (Wire.read_request (Wire.source_of_string s))).Wire.keep_alive in
        check_bool "1.1 default" true (ka "GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        check_bool "1.1 close" false
          (ka "GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n");
        check_bool "1.0 default" false (ka "GET / HTTP/1.0\r\n\r\n");
        check_bool "1.0 keep-alive" true
          (ka "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    test "malformed request lines are 400s" (fun () ->
        List.iter
          (fun s ->
            let e = expect_error (Wire.read_request (Wire.source_of_string s)) in
            check_bool "malformed" true
              (match e with Wire.Malformed _ -> true | _ -> false);
            check_int "status" 400 (Status.to_int (Wire.error_status e)))
          [
            "GET /x\r\n\r\n" (* missing version *);
            "GET  /x HTTP/1.1\r\n\r\n" (* double space *);
            "FROB /x HTTP/1.1\r\nHost: h\r\n\r\n" (* unknown method *);
            "GET x HTTP/1.1\r\nHost: h\r\n\r\n" (* not origin-form *);
            "GET /x HTTP/2.0\r\nHost: h\r\n\r\n" (* unsupported version *);
            "GET /x HTTP/1.1\r\nHost h\r\n\r\n" (* header without colon *);
            "GET /x HTTP/1.1\r\nHost: h\r\n bad fold\r\n\r\n" (* obs-fold *);
          ]);
    test "missing Host on HTTP/1.1 rejected; fine on 1.0" (fun () ->
        let e = expect_error (Wire.read_request (Wire.source_of_string "GET / HTTP/1.1\r\n\r\n")) in
        check_bool "1.1" true (match e with Wire.Malformed _ -> true | _ -> false);
        ignore (expect_request (Wire.read_request (Wire.source_of_string "GET / HTTP/1.0\r\n\r\n"))));
    test "Transfer-Encoding rejected instead of desyncing" (fun () ->
        let e =
          expect_error
            (Wire.read_request
               (Wire.source_of_string
                  "POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n"))
        in
        check_bool "te" true (match e with Wire.Malformed _ -> true | _ -> false));
    test "invalid and conflicting Content-Length rejected" (fun () ->
        List.iter
          (fun cl ->
            let s = "POST / HTTP/1.1\r\nHost: h\r\n" ^ cl ^ "\r\nx" in
            let e = expect_error (Wire.read_request (Wire.source_of_string s)) in
            check_bool "cl" true (match e with Wire.Malformed _ -> true | _ -> false))
          [
            "Content-Length: nope\r\n";
            "Content-Length: -3\r\n";
            "Content-Length: 1\r\nContent-Length: 2\r\n";
          ]);
    test "request line over the cap is 431" (fun () ->
        let limits = { Wire.default_limits with Wire.max_request_line = 64 } in
        let s = "GET /" ^ String.make 200 'a' ^ " HTTP/1.1\r\nHost: h\r\n\r\n" in
        let e = expect_error (Wire.read_request ~limits (Wire.source_of_string s)) in
        check_bool "431" true (e = Wire.Request_line_too_long);
        check_int "status" 431 (Status.to_int (Wire.error_status e)));
    test "header section over the caps is 431" (fun () ->
        let limits = { Wire.default_limits with Wire.max_header_bytes = 128 } in
        let s =
          "GET / HTTP/1.1\r\nHost: h\r\nX-Pad: " ^ String.make 300 'b' ^ "\r\n\r\n"
        in
        check_bool "bytes" true
          (expect_error (Wire.read_request ~limits (Wire.source_of_string s))
          = Wire.Headers_too_large);
        let limits = { Wire.default_limits with Wire.max_headers = 4 } in
        let many =
          String.concat "" (List.init 8 (fun i -> Printf.sprintf "X-H%d: v\r\n" i))
        in
        check_bool "count" true
          (expect_error
             (Wire.read_request ~limits
                (Wire.source_of_string ("GET / HTTP/1.1\r\nHost: h\r\n" ^ many ^ "\r\n")))
          = Wire.Headers_too_large));
    test "body over the cap is 413 and is not read" (fun () ->
        let limits = { Wire.default_limits with Wire.max_body = 16 } in
        let s = "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 1000\r\n\r\n" in
        let e = expect_error (Wire.read_request ~limits (Wire.source_of_string s)) in
        check_bool "413" true (e = Wire.Body_too_large);
        check_int "status" 413 (Status.to_int (Wire.error_status e)));
    test "clean EOF between requests vs truncation mid-request" (fun () ->
        check_bool "eof" true (Wire.read_request (Wire.source_of_string "") = `Eof);
        let truncated = String.sub simple_get 0 (String.length simple_get - 4) in
        check_bool "truncated" true
          (match Wire.read_request (Wire.source_of_string truncated) with
          | `Error (Wire.Malformed _) -> true
          | _ -> false);
        let body_cut = String.sub post_with_body 0 (String.length post_with_body - 2) in
        check_bool "body cut" true
          (match Wire.read_request (Wire.source_of_string body_cut) with
          | `Error (Wire.Malformed _) -> true
          | _ -> false));
  ]

let wire_serialize_tests =
  [
    test "response serialization frames status, length, connection" (fun () ->
        let s = Wire.write_response ~keep_alive:true (Response.text "hello") in
        check_bool "status line" true (contains s "HTTP/1.1 200 OK\r\n");
        check_bool "cl" true (contains s "Content-Length: 5\r\n");
        check_bool "ka" true (contains s "Connection: keep-alive\r\n");
        check_bool "body" true (contains s "\r\n\r\nhello");
        let s = Wire.write_response ~keep_alive:false (Response.text "hello") in
        check_bool "close" true (contains s "Connection: close\r\n"));
    test "head_only keeps Content-Length, drops the body" (fun () ->
        let s = Wire.write_response ~head_only:true ~keep_alive:true (Response.text "hello") in
        check_bool "cl" true (contains s "Content-Length: 5\r\n");
        check_bool "no body" true
          (String.length s >= 4 && String.sub s (String.length s - 4) 4 = "\r\n\r\n"));
    test "a smuggled Content-Length cannot survive serialization" (fun () ->
        let forged =
          Response.make ~headers:(Headers.of_list [ ("Content-Length", "9999") ]) ~body:"hi"
            Status.Ok
        in
        let s = Wire.write_response ~keep_alive:false forged in
        check_bool "authoritative" true (contains s "Content-Length: 2\r\n");
        check_bool "forged gone" false (contains s "9999"));
    test "response round-trips through the client reader" (fun () ->
        let response =
          Response.with_cookie (Response.html "<p>ok</p>") ~name:"sid" ~value:"abc"
        in
        let bytes = Wire.write_response ~keep_alive:true response in
        match Wire.read_response (Wire.source_of_string bytes) with
        | `Response (status, headers, body) ->
            check_int "status" 200 status;
            check_str "body" "<p>ok</p>" body;
            check_bool "cookie" true (Option.is_some (Headers.get headers "Set-Cookie"))
        | _ -> Alcotest.fail "client reader failed");
    test "request serializer round-trips through the request parser" (fun () ->
        let bytes =
          Wire.write_request ~host:"127.0.0.1"
            ~headers:(Headers.of_list [ ("Cookie", "user=ada") ])
            ~body:"a=1" Meth.POST "/submit/3"
        in
        let inc = expect_request (Wire.read_request (Wire.source_of_string bytes)) in
        check_str "path" "/submit/3" inc.Wire.request.Request.path;
        check_str "body" "a=1" inc.Wire.request.Request.body;
        check_bool "cookie" true (Request.cookie inc.Wire.request "user" = Some "ada"));
  ]

(* ------------------------------------------------------------------ *)
(* Socket tests against a live server. *)

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

let get_target target = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" target

let read_resp src =
  match Wire.read_response src with
  | `Response (status, headers, body) -> (status, headers, body)
  | `Eof -> Alcotest.fail "connection closed before a response arrived"
  | `Error e -> Alcotest.fail ("client parse error: " ^ Wire.error_message e)

let test_router () =
  let r = Router.create () in
  Router.on_error r (fun _ -> ());
  Router.get r "/hi" (fun _ -> Response.text "hello");
  Router.get r "/echo/<x>" (fun req -> Response.text (Request.path_param_exn req "x"));
  Router.get r "/boom" (fun _ -> failwith "kaboom-secret-internal");
  Router.post r "/sum" (fun req ->
      match Request.form_param req "n" with
      | Some n -> Response.text n
      | None -> Response.error Status.Bad_request "missing n");
  r

let with_server ?(config = { Server.default_config with Server.domains = 3 }) ?router f =
  let router = match router with Some r -> r | None -> test_router () in
  match
    Server.start ~config ~on_error:(fun _ -> ()) ~handler:(Router.dispatch router) ()
  with
  | Error m -> Alcotest.fail ("server start: " ^ m)
  | Ok t -> Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let server_tests =
  [
    test "GET over a real socket" (fun () ->
        with_server (fun t ->
            let fd = connect (Server.port t) in
            write_all fd (get_target "/hi");
            let status, _, body = read_resp (source_of_fd fd) in
            close_quietly fd;
            check_int "status" 200 status;
            check_str "body" "hello" body));
    test "keep-alive serves several requests on one connection" (fun () ->
        with_server (fun t ->
            let fd = connect (Server.port t) in
            let src = source_of_fd fd in
            for i = 1 to 3 do
              write_all fd (get_target "/hi");
              let status, headers, body = read_resp src in
              check_int (Printf.sprintf "status %d" i) 200 status;
              check_str (Printf.sprintf "body %d" i) "hello" body;
              check_bool "keep-alive" true
                (Headers.get headers "Connection" = Some "keep-alive")
            done;
            close_quietly fd;
            check_bool "served >= 3" true ((Server.stats t).Server.served >= 3)));
    test "pipelined requests are answered in order" (fun () ->
        with_server (fun t ->
            let fd = connect (Server.port t) in
            write_all fd (get_target "/echo/first" ^ get_target "/echo/second");
            let src = source_of_fd fd in
            let _, _, a = read_resp src in
            let _, _, b = read_resp src in
            close_quietly fd;
            check_str "first" "first" a;
            check_str "second" "second" b));
    test "encoded path segments route and decode over the wire" (fun () ->
        with_server (fun t ->
            let fd = connect (Server.port t) in
            write_all fd (get_target "/echo/alice%40example.com");
            let status, _, body = read_resp (source_of_fd fd) in
            close_quietly fd;
            check_int "status" 200 status;
            check_str "decoded" "alice@example.com" body));
    test "a raising handler is a redacted 500 on the wire" (fun () ->
        with_server (fun t ->
            let fd = connect (Server.port t) in
            write_all fd (get_target "/boom");
            let status, _, body = read_resp (source_of_fd fd) in
            close_quietly fd;
            check_int "status" 500 status;
            check_str "redacted" "internal error" body;
            check_bool "no exception text" false (contains body "kaboom");
            check_bool "no Failure" false (contains body "Failure")));
    test "malformed request line gets 400 and a close" (fun () ->
        with_server (fun t ->
            let fd = connect (Server.port t) in
            write_all fd "NOT-HTTP\r\n\r\n";
            let src = source_of_fd fd in
            let status, headers, _ = read_resp src in
            check_int "status" 400 status;
            check_bool "close" true (Headers.get headers "Connection" = Some "close");
            check_bool "eof after" true (Wire.read_response src = `Eof);
            close_quietly fd;
            check_bool "counted" true ((Server.stats t).Server.parse_errors >= 1)));
    test "oversized header section gets 431" (fun () ->
        let config =
          {
            Server.default_config with
            Server.domains = 2;
            limits = { Wire.default_limits with Wire.max_header_bytes = 256 };
          }
        in
        with_server ~config (fun t ->
            let fd = connect (Server.port t) in
            write_all fd
              ("GET /hi HTTP/1.1\r\nHost: t\r\nX-Pad: " ^ String.make 1000 'p' ^ "\r\n\r\n");
            let status, _, _ = read_resp (source_of_fd fd) in
            close_quietly fd;
            check_int "status" 431 status));
    test "oversized body gets 413" (fun () ->
        let config =
          {
            Server.default_config with
            Server.domains = 2;
            limits = { Wire.default_limits with Wire.max_body = 32 };
          }
        in
        with_server ~config (fun t ->
            let fd = connect (Server.port t) in
            write_all fd
              "POST /sum HTTP/1.1\r\nHost: t\r\nContent-Length: 4096\r\n\r\n";
            let status, _, _ = read_resp (source_of_fd fd) in
            close_quietly fd;
            check_int "status" 413 status));
    test "connections beyond capacity shed with 503" (fun () ->
        let config =
          {
            Server.default_config with
            Server.domains = 2;
            max_connections = 1;
            idle_timeout_s = 5.0;
          }
        in
        with_server ~config (fun t ->
            (* First connection parks itself in a worker (it never sends a
               byte); once it is accepted, the next arrival is over
               capacity and must be refused immediately with 503. *)
            let holder = connect (Server.port t) in
            let deadline = Unix.gettimeofday () +. 5.0 in
            while (Server.stats t).Server.active < 1 && Unix.gettimeofday () < deadline do
              ignore (Unix.select [] [] [] 0.01)
            done;
            let fd = connect (Server.port t) in
            write_all fd (get_target "/hi");
            let status, headers, _ = read_resp (source_of_fd fd) in
            close_quietly fd;
            close_quietly holder;
            check_int "shed status" 503 status;
            check_bool "close" true (Headers.get headers "Connection" = Some "close");
            check_bool "counted" true ((Server.stats t).Server.shed >= 1)));
    test "idle connections are reaped by the deadline" (fun () ->
        let config =
          { Server.default_config with Server.domains = 2; idle_timeout_s = 0.2 }
        in
        with_server ~config (fun t ->
            let fd = connect (Server.port t) in
            (* Send nothing: the read on our side blocks until the server
               times the connection out and closes it. *)
            let closed =
              match Wire.read_response (source_of_fd fd) with `Eof -> true | _ -> false
            in
            close_quietly fd;
            check_bool "closed" true closed;
            check_bool "counted" true ((Server.stats t).Server.timeouts >= 1)));
    test "max requests per connection forces a close" (fun () ->
        let config =
          { Server.default_config with Server.domains = 2; max_requests_per_connection = 2 }
        in
        with_server ~config (fun t ->
            let fd = connect (Server.port t) in
            let src = source_of_fd fd in
            write_all fd (get_target "/hi");
            let _, h1, _ = read_resp src in
            check_bool "first keep-alive" true
              (Headers.get h1 "Connection" = Some "keep-alive");
            write_all fd (get_target "/hi");
            let _, h2, _ = read_resp src in
            check_bool "second closes" true (Headers.get h2 "Connection" = Some "close");
            check_bool "then eof" true (Wire.read_response src = `Eof);
            close_quietly fd));
    test "HEAD answers headers only" (fun () ->
        with_server (fun t ->
            let fd = connect (Server.port t) in
            write_all fd "HEAD /hi HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
            let buf = Buffer.create 256 in
            let bytes = Bytes.create 1024 in
            let rec slurp () =
              match Unix.read fd bytes 0 1024 with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf bytes 0 n;
                  slurp ()
            in
            slurp ();
            close_quietly fd;
            let raw = Buffer.contents buf in
            check_bool "content-length kept" true (contains raw "Content-Length: 5\r\n");
            check_bool "no body" true
              (String.length raw >= 4
              && String.sub raw (String.length raw - 4) 4 = "\r\n\r\n")));
    test "concurrent clients are all served" (fun () ->
        with_server (fun t ->
            let port = Server.port t in
            let per_client = 20 in
            let client () =
              let fd = connect port in
              let src = source_of_fd fd in
              let ok = ref 0 in
              for _ = 1 to per_client do
                write_all fd (get_target "/hi");
                let status, _, body = read_resp src in
                if status = 200 && body = "hello" then incr ok
              done;
              close_quietly fd;
              !ok
            in
            let domains = List.init 4 (fun _ -> Domain.spawn client) in
            let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
            check_int "all answered" (4 * per_client) total;
            check_bool "stat" true ((Server.stats t).Server.served >= 4 * per_client)));
    test "the on_error stream carries neither exception text nor raw paths" (fun () ->
        (* Both redaction points: the router's guard (for /boom/<x>) and
           the server's own handler guard (for a handler that raises
           outside any router). *)
        let log = Buffer.create 256 and lock = Mutex.create () in
        let capture msg = Mutex.protect lock (fun () -> Buffer.add_string log (msg ^ "\n")) in
        let router = Router.create () in
        Router.on_error router capture;
        Router.get router "/boom/<x>" (fun _ -> failwith "s3cr3t");
        let handler (req : Request.t) =
          if String.starts_with ~prefix:"/raw/" req.Request.path then failwith "s3cr3t"
          else Router.dispatch router req
        in
        let config = { Server.default_config with Server.domains = 2 } in
        (match Server.start ~config ~on_error:capture ~handler () with
        | Error m -> Alcotest.fail ("server start: " ^ m)
        | Ok t ->
            Fun.protect
              ~finally:(fun () -> Server.stop t)
              (fun () ->
                List.iter
                  (fun target ->
                    let fd = connect (Server.port t) in
                    write_all fd (get_target target);
                    let status, _, body = read_resp (source_of_fd fd) in
                    close_quietly fd;
                    check_int (target ^ " status") 500 status;
                    check_bool (target ^ " body") false (contains body "s3cr3t"))
                  [ "/boom/s3cr3t"; "/raw/s3cr3t" ]));
        let logged = Mutex.protect lock (fun () -> Buffer.contents log) in
        check_bool "router guard logged the route" true (contains logged "GET /boom/<x>");
        check_bool "server guard logged" true (contains logged "GET: handler raised Failure");
        check_bool "no secret in the log" false (contains logged "s3cr3t"));
  ]

let () =
  Alcotest.run "server"
    [
      ("wire-parse", wire_parse_tests);
      ("wire-serialize", wire_serialize_tests);
      ("server", server_tests);
    ]
