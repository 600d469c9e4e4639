open Sesame_http

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let meth_status_tests =
  [
    test "method round-trip" (fun () ->
        List.iter
          (fun m -> check_bool "rt" true (Meth.of_string (Meth.to_string m) = Some m))
          [ Meth.GET; Meth.POST; Meth.PUT; Meth.DELETE; Meth.PATCH; Meth.HEAD; Meth.OPTIONS ]);
    test "method parse is case-insensitive" (fun () ->
        check_bool "get" true (Meth.of_string "get" = Some Meth.GET);
        check_bool "junk" true (Meth.of_string "YEET" = None));
    test "status codes round-trip" (fun () ->
        List.iter
          (fun s -> check_bool "rt" true (Status.equal (Status.of_int (Status.to_int s)) s))
          [ Status.Ok; Status.Created; Status.Forbidden; Status.Not_found; Status.Internal_error ]);
    test "is_success covers the 2xx range only" (fun () ->
        check_bool "200" true (Status.is_success Status.Ok);
        check_bool "204" true (Status.is_success Status.No_content);
        check_bool "303" false (Status.is_success Status.See_other);
        check_bool "403" false (Status.is_success Status.Forbidden));
  ]

let headers_tests =
  [
    test "lookup is case-insensitive" (fun () ->
        let h = Headers.of_list [ ("Content-Type", "text/html") ] in
        check_bool "lower" true (Headers.get h "content-type" = Some "text/html");
        check_bool "upper" true (Headers.mem h "CONTENT-TYPE"));
    test "add keeps multiple values, replace collapses" (fun () ->
        let h = Headers.add (Headers.add Headers.empty "Set-Cookie" "a=1") "Set-Cookie" "b=2" in
        check_int "two" 2 (List.length (Headers.get_all h "set-cookie"));
        let h = Headers.replace h "Set-Cookie" "c=3" in
        Alcotest.(check (list string)) "one" [ "c=3" ] (Headers.get_all h "set-cookie"));
    test "remove deletes all spellings" (fun () ->
        let h = Headers.of_list [ ("X-A", "1"); ("x-a", "2"); ("X-B", "3") ] in
        let h = Headers.remove h "X-A" in
        check_bool "gone" false (Headers.mem h "x-a");
        check_bool "kept" true (Headers.mem h "x-b"));
    test "CR/LF and control characters rejected at construction" (fun () ->
        let rejects f = try f (); false with Invalid_argument _ -> true in
        check_bool "crlf value" true
          (rejects (fun () -> ignore (Headers.add Headers.empty "X-A" "a\r\nSet-Cookie: evil=1")));
        check_bool "lf value" true
          (rejects (fun () -> ignore (Headers.add Headers.empty "X-A" "a\nb")));
        check_bool "nul value" true
          (rejects (fun () -> ignore (Headers.replace Headers.empty "X-A" "a\x00b")));
        check_bool "bad name" true
          (rejects (fun () -> ignore (Headers.add Headers.empty "X A" "v")));
        check_bool "crlf name" true
          (rejects (fun () -> ignore (Headers.of_list [ ("X\r\nY", "v") ])));
        check_bool "empty name" true
          (rejects (fun () -> ignore (Headers.add Headers.empty "" "v")));
        (* Horizontal tab is the one control byte a field value may hold. *)
        check_bool "tab ok" true
          (Headers.get (Headers.add Headers.empty "X-A" "a\tb") "X-A" = Some "a\tb"));
    test "add is linear, not quadratic" (fun () ->
        let n = 20_000 in
        let h = ref Headers.empty in
        for i = 1 to n do
          h := Headers.add !h "X-N" (string_of_int i)
        done;
        check_int "count" n (Headers.length !h);
        (* First-added wins for single-valued lookup... *)
        check_bool "first" true (Headers.get !h "X-N" = Some "1");
        (* ...and get_all preserves insertion order. *)
        check_bool "order" true
          (match Headers.get_all !h "x-n" with
          | "1" :: "2" :: _ -> true
          | _ -> false));
  ]

let cookie_tests =
  [
    test "parse cookie header" (fun () ->
        Alcotest.(check (list (pair string string)))
          "pairs"
          [ ("user", "ada"); ("theme", "dark") ]
          (Cookie.parse_header "user=ada; theme=dark"));
    test "parse skips malformed fragments" (fun () ->
        Alcotest.(check (list (pair string string)))
          "pairs" [ ("ok", "1") ]
          (Cookie.parse_header "garbage; =empty; ok=1"));
    test "render attributes" (fun () ->
        let rendered =
          Cookie.render_set_cookie
            ~attributes:{ Cookie.path = Some "/"; max_age = Some 60; http_only = true; secure = false }
            ~name:"sid" "abc"
        in
        check_str "rendered" "sid=abc; Path=/; Max-Age=60; HttpOnly" rendered);
    test "expire emits Max-Age=0" (fun () ->
        check_bool "max-age 0" true (contains (Cookie.expire ~name:"sid") "Max-Age=0"));
    test "render rejects splitting characters" (fun () ->
        let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
        check_bool "crlf value" true
          (rejects (fun () -> Cookie.render_set_cookie ~name:"sid" "a\r\nSet-Cookie: evil=1"));
        check_bool "semicolon value" true
          (rejects (fun () -> Cookie.render_set_cookie ~name:"sid" "a;Path=/admin"));
        check_bool "crlf name" true
          (rejects (fun () -> Cookie.render_set_cookie ~name:"s\r\nX" "v"));
        check_bool "eq in name" true
          (rejects (fun () -> Cookie.render_set_cookie ~name:"a=b" "v"));
        check_bool "bad path attr" true
          (rejects (fun () ->
               Cookie.render_set_cookie
                 ~attributes:
                   { Cookie.path = Some "/\r\nX: y"; max_age = None; http_only = false; secure = false }
                 ~name:"sid" "v")));
  ]

let request_tests =
  [
    test "query string parsed and decoded" (fun () ->
        let r = Request.make Meth.GET "/search?q=hello+world&lang=en%2Dus" in
        check_str "path" "/search" r.Request.path;
        check_bool "decoded" true (Request.query_param r "q" = Some "hello world");
        check_bool "pct" true (Request.query_param r "lang" = Some "en-us"));
    test "percent_decode handles malformed escapes" (fun () ->
        check_str "trailing" "100%" (Request.percent_decode "100%");
        check_str "bad hex" "%zz" (Request.percent_decode "%zz"));
    test "percent encode/decode round-trip" (fun () ->
        let s = "a b/c?&=%~" in
        check_str "rt" s (Request.percent_decode (Request.percent_encode s)));
    test "percent_decode_path keeps '+' literal" (fun () ->
        check_str "plus" "a+b" (Request.percent_decode_path "a+b");
        check_str "escape" "a b" (Request.percent_decode_path "a%20b");
        (* Form decoding still maps '+' to space. *)
        check_str "form" "a b" (Request.percent_decode "a+b"));
    test "form params require urlencoded content type" (fun () ->
        let headers = Headers.of_list [ ("Content-Type", "application/x-www-form-urlencoded") ] in
        let r = Request.make ~headers ~body:"a=1&b=two+2" Meth.POST "/f" in
        check_bool "a" true (Request.form_param r "a" = Some "1");
        check_bool "b" true (Request.form_param r "b" = Some "two 2");
        let r2 = Request.make ~body:"a=1" Meth.POST "/f" in
        check_bool "no ct" true (Request.form_param r2 "a" = None));
    test "content type with charset suffix accepted" (fun () ->
        let headers =
          Headers.of_list [ ("Content-Type", "application/x-www-form-urlencoded; charset=utf-8") ]
        in
        let r = Request.make ~headers ~body:"a=1" Meth.POST "/f" in
        check_bool "a" true (Request.form_param r "a" = Some "1"));
    test "cookies from header" (fun () ->
        let headers = Headers.of_list [ ("Cookie", "user=ada; k=v") ] in
        let r = Request.make ~headers Meth.GET "/" in
        check_bool "user" true (Request.cookie r "user" = Some "ada");
        check_bool "missing" true (Request.cookie r "nope" = None));
  ]

let route_tests =
  [
    test "literal route matches exactly" (fun () ->
        let r = Route.parse_exn "/a/b" in
        check_bool "match" true (Route.matches r "/a/b" = Some []);
        check_bool "no match" true (Route.matches r "/a/b/c" = None);
        check_bool "no prefix" true (Route.matches r "/a" = None));
    test "parameters capture and decode" (fun () ->
        let r = Route.parse_exn "/view/<answer_id>" in
        check_bool "capture" true (Route.matches r "/view/42" = Some [ ("answer_id", "42") ]);
        check_bool "decode" true
          (Route.matches r "/view/a%20b" = Some [ ("answer_id", "a b") ]));
    test "rest parameter swallows the tail" (fun () ->
        let r = Route.parse_exn "/static/<path..>" in
        check_bool "tail" true (Route.matches r "/static/css/site.css" = Some [ ("path", "css/site.css") ]));
    test "rest must be last" (fun () ->
        check_bool "reject" true (Result.is_error (Route.parse "/a/<x..>/b")));
    test "duplicate parameter names rejected" (fun () ->
        check_bool "dup" true (Result.is_error (Route.parse "/a/<x>/<x>")));
    test "must start with slash" (fun () ->
        check_bool "rooted" true (Result.is_error (Route.parse "a/b")));
    test "specificity counts literals" (fun () ->
        check_int "2" 2 (Route.specificity (Route.parse_exn "/a/b/<x>"));
        check_int "0" 0 (Route.specificity (Route.parse_exn "/<x>")));
    test "encoded literals match their decoded spelling" (fun () ->
        let r = Route.parse_exn "/caf\xc3\xa9" in
        check_bool "encoded path" true (Route.matches r "/caf%C3%A9" = Some []));
    test "path decoding is not form decoding" (fun () ->
        (* '+' in a path segment is a literal plus, not a space. *)
        let r = Route.parse_exn "/tag/<t>" in
        check_bool "plus kept" true (Route.matches r "/tag/c%2B%2B" = Some [ ("t", "c++") ]);
        check_bool "raw plus kept" true (Route.matches r "/tag/a+b" = Some [ ("t", "a+b") ]));
    test "encoded slash stays inside its segment" (fun () ->
        let r = Route.parse_exn "/f/<name>" in
        check_bool "%2F" true (Route.matches r "/f/a%2Fb" = Some [ ("name", "a/b") ]);
        check_bool "not a separator" true (Route.matches r "/f/a/b" = None));
    test "truncated escapes pass through undecoded" (fun () ->
        let r = Route.parse_exn "/x/<v>" in
        check_bool "%4" true (Route.matches r "/x/a%4" = Some [ ("v", "a%4") ]);
        check_bool "bare %" true (Route.matches r "/x/100%" = Some [ ("v", "100%") ]);
        check_bool "bad hex" true (Route.matches r "/x/%zz" = Some [ ("v", "%zz") ]));
    test "percent_encode round-trips through segment decoding" (fun () ->
        List.iter
          (fun s ->
            let r = Route.parse_exn "/v/<x>" in
            check_bool s true
              (Route.matches r ("/v/" ^ Request.percent_encode s) = Some [ ("x", s) ]))
          [ "alice@example.com"; "a/b"; "a+b c"; "50%"; "caf\xc3\xa9" ]);
  ]

let router_tests =
  [
    test "dispatch routes by method and path" (fun () ->
        let r = Router.create () in
        Router.get r "/hi" (fun _ -> Response.text "hello");
        Router.post r "/hi" (fun _ -> Response.text "posted");
        let get = Router.dispatch r (Request.make Meth.GET "/hi") in
        let post = Router.dispatch r (Request.make Meth.POST "/hi") in
        check_str "get" "hello" get.Response.body;
        check_str "post" "posted" post.Response.body);
    test "404 vs 405" (fun () ->
        let r = Router.create () in
        Router.get r "/only-get" (fun _ -> Response.text "ok");
        check_int "404" 404
          (Status.to_int (Router.dispatch r (Request.make Meth.GET "/none")).Response.status);
        check_int "405" 405
          (Status.to_int (Router.dispatch r (Request.make Meth.POST "/only-get")).Response.status));
    test "more specific route wins" (fun () ->
        let r = Router.create () in
        Router.get r "/a/<x>" (fun _ -> Response.text "param");
        Router.get r "/a/b" (fun _ -> Response.text "literal");
        check_str "literal" "literal"
          (Router.dispatch r (Request.make Meth.GET "/a/b")).Response.body;
        check_str "param" "param"
          (Router.dispatch r (Request.make Meth.GET "/a/zzz")).Response.body);
    test "path params reach the handler" (fun () ->
        let r = Router.create () in
        Router.get r "/u/<name>" (fun req -> Response.text (Request.path_param_exn req "name"));
        check_str "name" "ada" (Router.dispatch r (Request.make Meth.GET "/u/ada")).Response.body);
    test "handler exceptions become 500s" (fun () ->
        let r = Router.create () in
        Router.on_error r (fun _ -> ());
        Router.get r "/boom" (fun _ -> failwith "kaboom");
        check_int "500" 500
          (Status.to_int (Router.dispatch r (Request.make Meth.GET "/boom")).Response.status));
    test "500 bodies never leak exception text" (fun () ->
        let r = Router.create () in
        let logged = ref "" in
        Router.on_error r (fun msg -> logged := msg);
        Router.get r "/boom" (fun _ -> failwith "secret-/etc/passwd-path");
        let resp = Router.dispatch r (Request.make Meth.GET "/boom") in
        check_int "500" 500 (Status.to_int resp.Response.status);
        check_str "redacted" "internal error" resp.Response.body;
        check_bool "no leak" false (contains resp.Response.body "secret");
        (* The log names the route and the exception's constructor, and
           carries no exception text either. *)
        check_bool "log redacted" false (contains !logged "secret");
        check_bool "logged route" true (contains !logged "GET /boom");
        check_bool "logged constructor" true (contains !logged "Failure"));
    test "specificity wins regardless of registration order" (fun () ->
        (* Entries are pre-sorted at registration, so every order must
           dispatch identically when specificities differ. *)
        List.iter
          (fun routes ->
            let r = Router.create () in
            List.iter (fun (pat, name) -> Router.get r pat (fun _ -> Response.text name)) routes;
            let body path =
              (Router.dispatch r (Request.make Meth.GET path)).Response.body
            in
            check_str "literal" "literal" (body "/a/b");
            check_str "rest" "rest" (body "/a/x/y"))
          [
            [ ("/a/<x>", "param"); ("/a/b", "literal"); ("/a/<p..>", "rest") ];
            [ ("/a/<p..>", "rest"); ("/a/b", "literal"); ("/a/<x>", "param") ];
            [ ("/a/b", "literal"); ("/a/<p..>", "rest"); ("/a/<x>", "param") ];
          ]);
    test "equal specificity ties break by registration order" (fun () ->
        let r = Router.create () in
        Router.get r "/a/<p..>" (fun _ -> Response.text "rest");
        Router.get r "/a/<x>" (fun _ -> Response.text "param");
        check_str "first registered" "rest"
          (Router.dispatch r (Request.make Meth.GET "/a/zzz")).Response.body;
        let r = Router.create () in
        Router.get r "/a/<x>" (fun _ -> Response.text "param");
        Router.get r "/a/<p..>" (fun _ -> Response.text "rest");
        check_str "first registered" "param"
          (Router.dispatch r (Request.make Meth.GET "/a/zzz")).Response.body);
    test "routes reports registration order" (fun () ->
        let r = Router.create () in
        Router.get r "/<x>" (fun _ -> Response.text "1");
        Router.get r "/a/b" (fun _ -> Response.text "2");
        Alcotest.(check (list string))
          "order" [ "/<x>"; "/a/b" ]
          (List.map snd (Router.routes r)));
    test "duplicate route registration rejected" (fun () ->
        let r = Router.create () in
        Router.get r "/a" (fun _ -> Response.text "1");
        check_bool "dup" true
          (try
             Router.get r "/a" (fun _ -> Response.text "2");
             false
           with Invalid_argument _ -> true));
    test "middleware wraps handlers, earliest outermost" (fun () ->
        let r = Router.create () in
        Router.get r "/m" (fun _ -> Response.text "core");
        Router.use r (fun next req ->
            let resp = next req in
            { resp with Response.body = "[" ^ resp.Response.body ^ "]" });
        Router.use r (fun next req ->
            let resp = next req in
            { resp with Response.body = "<" ^ resp.Response.body ^ ">" });
        check_str "wrapped" "[<core>]"
          (Router.dispatch r (Request.make Meth.GET "/m")).Response.body);
  ]

let template_tests =
  [
    test "variable substitution escapes HTML" (fun () ->
        let t = Template.compile_exn "<p>{{x}}</p>" in
        check_str "escaped" "<p>&lt;b&gt;&amp;</p>"
          (Template.render t [ ("x", Template.Str "<b>&") ]));
    test "triple braces render raw" (fun () ->
        let t = Template.compile_exn "{{{x}}}" in
        check_str "raw" "<b>" (Template.render t [ ("x", Template.Str "<b>") ]));
    test "missing variables render empty" (fun () ->
        let t = Template.compile_exn "a{{ghost}}b" in
        check_str "empty" "ab" (Template.render t []));
    test "sections iterate lists with scoping" (fun () ->
        let t = Template.compile_exn "{{#xs}}({{n}}){{/xs}}" in
        check_str "loop" "(1)(2)"
          (Template.render t
             [ ("xs", Template.List [ [ ("n", Template.Str "1") ]; [ ("n", Template.Str "2") ] ]) ]));
    test "inner scope shadows outer" (fun () ->
        let t = Template.compile_exn "{{#xs}}{{n}}{{/xs}}" in
        check_str "shadow" "inner"
          (Template.render t
             [ ("n", Template.Str "outer");
               ("xs", Template.List [ [ ("n", Template.Str "inner") ] ]) ]));
    test "bool sections and inverted sections" (fun () ->
        let t = Template.compile_exn "{{#on}}yes{{/on}}{{^on}}no{{/on}}" in
        check_str "true" "yes" (Template.render t [ ("on", Template.Bool true) ]);
        check_str "false" "no" (Template.render t [ ("on", Template.Bool false) ]);
        check_str "missing is falsy" "no" (Template.render t []));
    test "string section binds dot" (fun () ->
        let t = Template.compile_exn "{{#name}}hi {{.}}{{/name}}" in
        check_str "dot" "hi ada" (Template.render t [ ("name", Template.Str "ada") ]));
    test "unbalanced sections rejected" (fun () ->
        check_bool "open" true (Result.is_error (Template.compile "{{#a}}x"));
        check_bool "mismatch" true (Result.is_error (Template.compile "{{#a}}x{{/b}}"));
        check_bool "stray close" true (Result.is_error (Template.compile "x{{/a}}")));
    test "unterminated tag rejected" (fun () ->
        check_bool "open brace" true (Result.is_error (Template.compile "{{x")));
    test "html_escape covers the five characters" (fun () ->
        check_str "all" "&amp;&lt;&gt;&quot;&#39;" (Template.html_escape "&<>\"'"));
  ]

let response_tests =
  [
    test "text and html set content types" (fun () ->
        check_bool "text" true
          (Response.header (Response.text "x") "content-type" = Some "text/plain; charset=utf-8");
        check_bool "html" true
          (Response.header (Response.html "x") "content-type" = Some "text/html; charset=utf-8"));
    test "redirect sets location and 303" (fun () ->
        let r = Response.redirect "/next" in
        check_int "303" 303 (Status.to_int r.Response.status);
        check_bool "location" true (Response.header r "location" = Some "/next"));
    test "with_cookie appends Set-Cookie" (fun () ->
        let r = Response.with_cookie (Response.text "x") ~name:"sid" ~value:"1" in
        check_bool "set" true (Option.is_some (Response.header r "set-cookie")));
  ]

let () =
  Alcotest.run "http"
    [
      ("meth-status", meth_status_tests);
      ("headers", headers_tests);
      ("cookie", cookie_tests);
      ("request", request_tests);
      ("route", route_tests);
      ("router", router_tests);
      ("template", template_tests);
      ("response", response_tests);
    ]
