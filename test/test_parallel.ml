(* Multi-domain safety and the enforcement front end.

   The load-bearing properties: shared counters stay exact under
   concurrent domains; Enforce is observationally identical to the
   sequential Policy reference — same verdicts, byte-identical denial
   messages — including immediately after a DB mutation the verdict
   depends on; and handler domains wrapping WebSubmit rows at once get
   the verdicts a single domain gets. *)

module C = Sesame_core
module Db = Sesame_db
module Apps = Sesame_apps
module Http = Sesame_http
module Wal = Sesame_wal

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Shared counters under concurrent domains *)

module Count_family = struct
  type s = unit

  let name = "test::count"
  let check () _ = true
  let join = None
  let no_folding = false
  let describe () = "Count"
end

module Count = C.Policy.Make (Count_family)

let counter_tests =
  [
    test "check_count is exact under two hammering domains" (fun () ->
        let per_domain = 50_000 in
        let policy = Count.make () in
        let ctx = C.Mock.context ~user:"hammer" () in
        C.Policy.reset_check_count ();
        let run () =
          for _ = 1 to per_domain do
            ignore (Sys.opaque_identity (C.Policy.check policy ctx))
          done
        in
        let d = Domain.spawn run in
        run ();
        Domain.join d;
        check_int "exact" (2 * per_domain) (C.Policy.check_count ()));
    test "sandbox pool counters are exact under two domains" (fun () ->
        let module Sbx = Sesame_sandbox in
        let pool = Sbx.Pool.create ~capacity:2 () in
        let per_domain = 5_000 in
        let run () =
          for _ = 1 to per_domain do
            let arena = Sbx.Pool.acquire pool in
            Sbx.Pool.release pool arena
          done
        in
        let d = Domain.spawn run in
        run ();
        Domain.join d;
        let st = Sbx.Pool.stats pool in
        check_int "acquired" (2 * per_domain) st.Sbx.Pool.acquired;
        (* Every release either returned (wiped) or dropped the arena. *)
        check_int "conserved" (2 * per_domain) (st.Sbx.Pool.wiped + st.Sbx.Pool.dropped);
        check_bool "healthy" true (Sbx.Pool.healthy pool);
        check_bool "bounded free list" true (Sbx.Pool.available pool <= 2));
    test "breaker counters are exact under two hammering domains" (fun () ->
        let per_domain = 20_000 in
        let db = Db.Database.create () in
        let schema =
          Db.Schema.make_exn ~name:"notes" ~primary_key:"id"
            [ { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false } ]
        in
        (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
        let conn = C.Sesame_conn.create db in
        let ctx = C.Mock.context ~user:"hammer" () in
        let run () =
          for _ = 1 to per_domain do
            match C.Sesame_conn.query conn ~context:ctx "SELECT * FROM notes" ~params:[] with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%a" C.Sesame_conn.pp_error e
          done
        in
        let d = Domain.spawn run in
        run ();
        Domain.join d;
        let s = C.Sesame_conn.sink_stats conn "db::query" in
        check_int "attempts" (2 * per_domain) s.C.Sesame_conn.attempts;
        check_int "no retries" 0 s.C.Sesame_conn.retries);
  ]

(* ------------------------------------------------------------------ *)
(* Enforce vs the sequential reference *)

module Parity = C.Policy.Make (struct
  type s = int

  let name = "par::parity"

  let check s ctx =
    match C.Context.user ctx with
    | Some u -> String.length u mod 2 = s
    | None -> false

  let join = None
  let no_folding = false
  let describe s = "parity=" ^ string_of_int s
end)

module Maxlen = C.Policy.Make (struct
  type s = int

  let name = "par::maxlen"

  let check s ctx =
    match C.Context.user ctx with Some u -> String.length u <= s | None -> false

  let join = None
  let no_folding = false
  let describe s = "maxlen=" ^ string_of_int s
end)

let verdict_eq a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

(* Enforce must agree with the sequential walk on verdicts AND denial
   messages, on a first and a repeated check alike. *)
let differential_prop (specs, users) =
  let policies =
    List.map
      (fun (parity, n) -> if parity then Parity.make (n mod 2) else Maxlen.make n)
      specs
  in
  let conj = C.Policy.conjoin_all policies in
  let contexts = List.map (fun u -> C.Mock.context ~user:("u" ^ u) ()) users in
  let agree ctx =
    let reference = C.Policy.check_verbose conj ctx in
    verdict_eq reference (C.Enforce.check_verbose conj ctx)
    && verdict_eq reference (C.Enforce.check_verbose conj ctx)
  in
  List.for_all agree contexts

let exec db sql params =
  match Db.Database.exec db sql ~params with
  | Ok _ -> ()
  | Error m -> failwith m

(* A consents-style table under [name]: pk who, bool consent. *)
let consent_table db name users =
  let schema =
    Db.Schema.make_exn ~name ~primary_key:"who"
      [
        { Db.Schema.name = "who"; ty = Db.Value.Ttext; nullable = false };
        { Db.Schema.name = "consent"; ty = Db.Value.Tbool; nullable = false };
      ]
  in
  (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
  List.iter
    (fun who ->
      exec db
        (Printf.sprintf "INSERT INTO %s VALUES (?, ?)" name)
        [ Db.Value.Text who; Db.Value.Bool true ])
    users

(* A policy whose verdict depends on table state: deny unless the
   user's row in [table] says consent = true. *)
module Consent_family = struct
  type s = { db : Db.Database.t; table : string; user : string }

  let name = "test::consent"

  let check s _ctx =
    match
      Db.Database.exec s.db
        (Printf.sprintf "SELECT consent FROM %s WHERE who = ?" s.table)
        ~params:[ Db.Value.Text s.user ]
    with
    | Ok (Db.Database.Rows { rows = [ [| Db.Value.Bool b |] ]; _ }) -> b
    | _ -> false

  let join = None
  let no_folding = false
  let describe s = "Consent(" ^ s.table ^ "/" ^ s.user ^ ")"
end

module Consent = C.Policy.Make (Consent_family)

(* A policy whose verdict reads an IN list over an indexed secondary
   column: the user must be on one of two teams. *)
module Team_family = struct
  type s = { db : Db.Database.t; user : string }

  let name = "test::team"

  let check s _ctx =
    match
      Db.Database.exec s.db "SELECT who FROM inv_team WHERE team IN (?, ?)"
        ~params:[ Db.Value.Int 1; Db.Value.Int 2 ]
    with
    | Ok (Db.Database.Rows { rows; _ }) -> List.mem [| Db.Value.Text s.user |] rows
    | _ -> false

  let join = None
  let no_folding = false
  let describe s = "Team(" ^ s.user ^ ")"
end

module Team = C.Policy.Make (Team_family)

let enforce_tests =
  [
    test "a DB mutation flips the next verdict" (fun () ->
        let db = Db.Database.create () in
        consent_table db "consents" [ "ada" ];
        let policy = Consent.make { db; table = "consents"; user = "ada" } in
        let ctx = C.Mock.context ~user:"ada" () in
        check_bool "initially allowed" true (C.Enforce.check policy ctx);
        check_bool "still allowed" true (C.Enforce.check policy ctx);
        exec db "UPDATE consents SET consent = false WHERE who = ?" [ Db.Value.Text "ada" ];
        check_bool "denied after the write" false (C.Enforce.check policy ctx));
    test "an IN index probe's verdict follows writes to other rows" (fun () ->
        let db = Db.Database.create () in
        let schema =
          Db.Schema.make_exn ~name:"inv_team" ~primary_key:"who"
            [
              { Db.Schema.name = "who"; ty = Db.Value.Ttext; nullable = false };
              { Db.Schema.name = "team"; ty = Db.Value.Tint; nullable = false };
            ]
        in
        (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
        (match Db.Database.ensure_index db ~table:"inv_team" ~column:"team" with
        | Ok () -> ()
        | Error m -> failwith m);
        List.iter
          (fun (who, team) ->
            exec db "INSERT INTO inv_team VALUES (?, ?)" [ Db.Value.Text who; Db.Value.Int team ])
          [ ("ada", 1); ("bob", 3) ];
        let ada = Team.make { db; user = "ada" } and bob = Team.make { db; user = "bob" } in
        let ctx = C.Mock.context ~user:"ada" () in
        check_bool "ada allowed" true (C.Enforce.check ada ctx);
        check_bool "bob denied" false (C.Enforce.check bob ctx);
        (* Moving bob into team 2 changes the probe's buckets, not
           ada's row: bob's verdict flips, ada's holds. *)
        exec db "UPDATE inv_team SET team = 2 WHERE who = ?" [ Db.Value.Text "bob" ];
        check_bool "bob allowed" true (C.Enforce.check bob ctx);
        check_bool "ada still allowed" true (C.Enforce.check ada ctx);
        exec db "UPDATE inv_team SET team = 3 WHERE who = ?" [ Db.Value.Text "ada" ];
        check_bool "ada denied" false (C.Enforce.check ada ctx));
    test "table creation invalidates verdicts that read its absence" (fun () ->
        let db = Db.Database.create () in
        let p = Consent.make { db; table = "inv_late"; user = "ada" } in
        let ctx = C.Mock.context ~user:"ada" () in
        check_bool "denied while absent" false (C.Enforce.check p ctx);
        consent_table db "inv_late" [ "ada" ];
        check_bool "allowed once created" true (C.Enforce.check p ctx));
  ]

(* ------------------------------------------------------------------ *)
(* Differential under mutation: Enforce vs the sequential reference *)

type op = Check of int | Set_consent of int * bool | Add_user of int | Drop_user of int

let n_users = 6

let op_gen =
  QCheck.Gen.(
    let u = int_bound (n_users - 1) in
    small_list
      (oneof
         [
           map (fun i -> Check i) u;
           map2 (fun i b -> Set_consent (i, b)) u bool;
           map (fun i -> Add_user i) u;
           map (fun i -> Drop_user i) u;
         ]))

let pp_op = function
  | Check i -> Printf.sprintf "Check %d" i
  | Set_consent (i, b) -> Printf.sprintf "Set (%d, %b)" i b
  | Add_user i -> Printf.sprintf "Add %d" i
  | Drop_user i -> Printf.sprintf "Drop %d" i

let op_arb =
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops)) op_gen

(* Replay [ops] against a fresh table; every Check must match the
   sequential walk computed at the same instant, verdicts AND denial
   messages. *)
let mutation_prop ops =
  let db = Db.Database.create () in
  let user i = String.make (i + 1) 'u' in
  consent_table db "diff_t" (List.init n_users user);
  let policies =
    Array.init n_users (fun i ->
        C.Policy.conjoin
          (Consent.make { db; table = "diff_t"; user = user i })
          (Parity.make (i mod 2)))
  in
  let contexts = Array.init n_users (fun i -> C.Mock.context ~user:(user i) ()) in
  List.for_all
    (fun op ->
      match op with
      | Check i ->
          let reference = C.Policy.check_verbose policies.(i) contexts.(i) in
          verdict_eq reference (C.Enforce.check_verbose policies.(i) contexts.(i))
      | Set_consent (i, b) ->
          exec db "UPDATE diff_t SET consent = ? WHERE who = ?"
            [ Db.Value.Bool b; Db.Value.Text (user i) ];
          true
      | Add_user i ->
          (* Fails on a duplicate pk — a rejected write, which must not
             perturb anything. *)
          ignore
            (Db.Database.exec db "INSERT INTO diff_t VALUES (?, ?)"
               ~params:[ Db.Value.Text (user i); Db.Value.Bool true ]);
          true
      | Drop_user i ->
          exec db "DELETE FROM diff_t WHERE who = ?" [ Db.Value.Text (user i) ];
          true)
    ops

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"Enforce == sequential reference"
         QCheck.(
           pair
             (small_list (pair bool (int_bound 6)))
             (small_list (string_small_of Gen.printable)))
         differential_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:80 ~name:"Enforce == sequential reference under mutation"
         op_arb mutation_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Snapshot scans and index builds racing writers on other domains *)

let ints_table db name n =
  let schema =
    Db.Schema.make_exn ~name ~primary_key:"id"
      [
        { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false };
        { Db.Schema.name = "v"; ty = Db.Value.Tint; nullable = false };
      ]
  in
  (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
  for i = 0 to n - 1 do
    exec db (Printf.sprintf "INSERT INTO %s VALUES (?, 0)" name) [ Db.Value.Int i ]
  done

let snapshot_tests =
  [
    test "a scan racing whole-table updates sees one consistent version" (fun () ->
        let db = Db.Database.create () in
        let n = 512 in
        ints_table db "torn_upd" n;
        let tbl = Db.Database.table_exn db "torn_upd" in
        let done_ = Atomic.make false in
        let writer =
          Domain.spawn (fun () ->
              for k = 1 to 40 do
                exec db "UPDATE torn_upd SET v = ?" [ Db.Value.Int k ]
              done;
              Atomic.set done_ true)
        in
        let torn = ref false in
        while not (Atomic.get done_) do
          let rows = Db.Table.select tbl ~where:Db.Expr.True in
          (match rows with
          | [] -> torn := true
          | [| _; v0 |] :: rest ->
              if
                List.length rows <> n
                || not (List.for_all (function [| _; v |] -> v = v0 | _ -> false) rest)
              then torn := true
          | _ -> torn := true)
        done;
        Domain.join writer;
        check_bool "no torn scan" false !torn);
    test "a scan racing inserts sees a consistent prefix" (fun () ->
        let db = Db.Database.create () in
        ints_table db "torn_ins" 0;
        let tbl = Db.Database.table_exn db "torn_ins" in
        let n = 800 in
        let writer =
          Domain.spawn (fun () ->
              for i = 0 to n - 1 do
                exec db "INSERT INTO torn_ins VALUES (?, 0)" [ Db.Value.Int i ]
              done)
        in
        let bad = ref false in
        let seen_all = ref false in
        while not !seen_all do
          let ids =
            List.map
              (function [| Db.Value.Int id; _ |] -> id | _ -> -1)
              (Db.Table.select tbl ~where:Db.Expr.True)
          in
          (* Inserts append in pk order, so any snapshot must be exactly
             0 .. k-1 — never a row without its predecessors. *)
          if ids <> List.init (List.length ids) Fun.id then bad := true;
          if List.length ids = n then seen_all := true
        done;
        Domain.join writer;
        check_bool "every snapshot a prefix" false !bad);
  ]

let hammer_tests =
  [
    test "4-domain scan/write hammer while ensure_index builds" (fun () ->
        let db = Db.Database.create () in
        let schema =
          Db.Schema.make_exn ~name:"hammer" ~primary_key:"id"
            [
              { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false };
              { Db.Schema.name = "grp"; ty = Db.Value.Tint; nullable = false };
              { Db.Schema.name = "v"; ty = Db.Value.Tint; nullable = false };
            ]
        in
        (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
        let n = 420 in
        for i = 0 to n - 1 do
          exec db "INSERT INTO hammer VALUES (?, ?, 0)" [ Db.Value.Int i; Db.Value.Int (i mod 7) ]
        done;
        let expected = List.filter (fun i -> i mod 7 = 2) (List.init n Fun.id) in
        let reader () =
          let ok = ref true in
          for _ = 1 to 120 do
            let ids =
              match
                Db.Database.exec db "SELECT id FROM hammer WHERE grp = ?" ~params:[ Db.Value.Int 2 ]
              with
              | Ok (Db.Database.Rows { rows; _ }) ->
                  List.map (function [| Db.Value.Int id |] -> id | _ -> -1) rows
              | _ -> []
            in
            if ids <> expected then ok := false
          done;
          !ok
        in
        (* The writer touches only [v], never [grp]: reader results must
           be bit-stable even mid-build. *)
        let writer () =
          for k = 1 to 400 do
            exec db "UPDATE hammer SET v = ? WHERE id = ?" [ Db.Value.Int k; Db.Value.Int (k mod n) ]
          done;
          true
        in
        let indexer () =
          for _ = 1 to 40 do
            match Db.Database.ensure_index db ~table:"hammer" ~column:"grp" with
            | Ok () -> ()
            | Error m -> failwith m
          done;
          true
        in
        let domains = List.map Domain.spawn [ reader; reader; writer; indexer ] in
        let oks = List.map Domain.join domains in
        check_bool "all domains consistent" true (List.for_all Fun.id oks);
        let tbl = Db.Database.table_exn db "hammer" in
        check_bool "index built" true (Db.Table.has_index tbl "grp"));
  ]

(* ------------------------------------------------------------------ *)
(* WebSubmit's bindings intern policies per staged statement, so handler
   domains wrapping answers rows at once share no table. *)

let n_students = 64

let websubmit_app () =
  let app = Result.get_ok (Apps.Websubmit.create ()) in
  (match Apps.Websubmit.seed app ~students:n_students ~questions:4 with
  | Ok () -> ()
  | Error m -> failwith m);
  app

let student i = Printf.sprintf "student%d@school.edu" i

(* Every verdict over student [i]'s answers, in row order: the answer
   and grade cells, each checked for a fixed set of observers. *)
let answer_verdicts app i =
  let conn = Apps.Websubmit.conn app in
  let ctx = C.Mock.context ~user:(student i) () in
  match
    C.Sesame_conn.query conn ~context:ctx "SELECT * FROM answers WHERE email = ?"
      ~params:[ C.Pcon.wrap_no_policy (Db.Value.Text (student i)) ]
  with
  | Error e -> Alcotest.failf "%a" C.Sesame_conn.pp_error e
  | Ok rows ->
      List.concat_map
        (fun row ->
          List.concat_map
            (fun col ->
              let policy = C.Pcon.policy (C.Pcon_row.get row col) in
              List.map
                (fun who -> C.Enforce.check_verbose policy (C.Mock.context ~user:who ()))
                [ student i; student ((i + 1) mod n_students); "admin@school.edu" ])
            [ "answer"; "grade" ])
        rows

let websubmit_tests =
  [
    test "4-domain answers wrapping matches the sequential reference" (fun () ->
        let reference =
          let app = websubmit_app () in
          Array.init n_students (answer_verdicts app)
        in
        (* A second app, seeded alike, so the domains share nothing with
           the reference pass; domain d owns the students i with
           i mod 4 = d. *)
        let app = websubmit_app () in
        let worker d () =
          let ok = ref true in
          for _ = 1 to 5 do
            for i = 0 to n_students - 1 do
              if i mod 4 = d && answer_verdicts app i <> reference.(i) then ok := false
            done
          done;
          !ok
        in
        let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
        check_bool "every verdict matches" true (List.for_all Domain.join domains));
    test "aggregate cells keep the policies of the rows they counted under racing writes"
      (fun () ->
        (* With elision and pushdown off, each group's grade cell carries
           the conjunction of its member rows' policies; a writer moves
           every answer to a new lecture meanwhile, so members read in a
           second scan could miss the rows the aggregate counted. *)
        let app = Result.get_ok (Apps.Websubmit.create ()) in
        (match Apps.Websubmit.seed app ~students:6 ~questions:4 with
        | Ok () -> ()
        | Error m -> failwith m);
        let db = Apps.Websubmit.database app in
        let context =
          C.Context.Internal.trusted ~endpoint:"/aggregates" ~user:"admin@school.edu"
            ~source:"test" ()
        in
        let elide = C.Enforce.elision () and push = C.Enforce.pushdown_enabled () in
        C.Enforce.set_elision false;
        C.Enforce.set_pushdown false;
        let stop = Atomic.make false in
        let writer =
          Domain.spawn (fun () ->
              let lecture = ref 0 in
              while not (Atomic.get stop) do
                incr lecture;
                exec db "UPDATE answers SET lecture = ? WHERE lecture <> ?"
                  [ Db.Value.Int !lecture; Db.Value.Int !lecture ]
              done)
        in
        let uncovered = ref 0 and counted = ref 0 in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Domain.join writer;
            C.Enforce.set_elision elide;
            C.Enforce.set_pushdown push)
          (fun () ->
            for _ = 1 to 300 do
              match
                C.Sesame_conn.query_agg (Apps.Websubmit.conn app) ~context
                  "SELECT AVG(grade), COUNT(grade) FROM answers GROUP BY lecture" ~params:[]
              with
              | Error e -> Alcotest.failf "%a" C.Sesame_conn.pp_error e
              | Ok rows ->
                  List.iter
                    (fun row ->
                      match C.Pcon.Internal.unwrap (List.assoc "COUNT(grade)" row) with
                      | Db.Value.Int n when n > 0 ->
                          incr counted;
                          if C.Policy.is_no_policy (C.Pcon.policy (List.assoc "AVG(grade)" row))
                          then incr uncovered
                      | _ -> ())
                    rows
            done);
        check_bool "groups counted" true (!counted > 0);
        check_int "counted groups released without their rows' policies" 0 !uncovered);
  ]

(* ------------------------------------------------------------------ *)
(* Creating writes from two domains. The store assigns every row key
   and one write section orders each write's apply and journal, so no
   write collides on a key and a durable store journals each one once. *)

let req ?(cookies = "") ?(body = "") meth target =
  Http.Request.make
    ~headers:
      (Http.Headers.of_list
         [ ("Cookie", cookies); ("Content-Type", "application/x-www-form-urlencoded") ])
    ~body meth target

let status r = Http.Status.to_int r.Http.Response.status

(* [f 0] and [f 1] on two domains, started together. *)
let on_two_domains f =
  let ready = Atomic.make 0 in
  let run d () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    f d
  in
  let other = Domain.spawn (run 1) in
  let mine = run 0 () in
  mine @ Domain.join other

(* Two domains each make [n] creating writes into [table] through
   [handle]; [request d i] is domain [d]'s [i]th. Every answer is a 201,
   and the table holds its seeded rows plus one row per write, each
   under its own key (column 0). *)
let concurrent_creates ?(n = 5_000) ~db ~table handle request =
  let tbl = Db.Database.table_exn db table in
  let seeded = Db.Table.length tbl in
  let statuses = on_two_domains (fun d -> List.init n (fun i -> status (handle (request d i)))) in
  check_int "no 5xx" 0 (List.length (List.filter (fun s -> s >= 500) statuses));
  check_int "every write acknowledged" (2 * n) (List.length (List.filter (( = ) 201) statuses));
  check_int "stored = seeded + acknowledged" (seeded + (2 * n)) (Db.Table.length tbl);
  let keys = Db.Table.fold tbl ~init:[] ~f:(fun acc row -> row.(0) :: acc) in
  check_int "distinct keys" (List.length keys) (List.length (List.sort_uniq compare keys))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* (id, email, answer) of every stored answer, by id. *)
let answer_rows app =
  Db.Table.fold
    (Db.Database.table_exn (Apps.Websubmit.database app) "answers")
    ~init:[]
    ~f:(fun acc row -> (row.(0), row.(1), row.(4)) :: acc)
  |> List.sort compare

let write_tests =
  [
    test "WebSubmit submits from two domains each get a key" (fun () ->
        let app = Result.get_ok (Apps.Websubmit.create ()) in
        (match Apps.Websubmit.seed app ~students:4 ~questions:2 with
        | Ok () -> ()
        | Error m -> failwith m);
        concurrent_creates ~db:(Apps.Websubmit.database app) ~table:"answers"
          (Apps.Websubmit.handle app) (fun d i ->
            req ~cookies:(Printf.sprintf "user=student%d@school.edu" d)
              ~body:(Printf.sprintf "answer=a%d" i) Http.Meth.POST
              (Printf.sprintf "/submit/1/%d" (10 + i)));
        Apps.Email.clear_outbox ());
    test "YouChat sends from two domains each get a key" (fun () ->
        let app = Result.get_ok (Apps.Youchat.create ()) in
        (match Apps.Youchat.seed app ~users:4 ~messages:8 with
        | Ok () -> ()
        | Error m -> failwith m);
        concurrent_creates ~db:(Apps.Youchat.database app) ~table:"messages"
          (Apps.Youchat.handle app) (fun d i ->
            req ~cookies:(Printf.sprintf "user=user%d@chat.io" d)
              ~body:(Printf.sprintf "to=user3%%40chat.io&body=m%d" i) Http.Meth.POST "/send"));
    test "Voltron enrollments from two domains each get a key" (fun () ->
        let app = Result.get_ok (Apps.Voltron.create ()) in
        (match Apps.Voltron.seed app ~classes:2 ~students_per_class:4 with
        | Ok () -> ()
        | Error m -> failwith m);
        concurrent_creates ~db:(Apps.Voltron.database app) ~table:"enrollments"
          (Apps.Voltron.handle app) (fun d i ->
            req ~cookies:(Printf.sprintf "user=instructor%d@university.edu" d)
              ~body:(Printf.sprintf "email=kid%d_%d%%40university.edu&group=1" d i)
              Http.Meth.POST
              (Printf.sprintf "/classes/%d/students" (d + 1))));
    test "Portfolio uploads from two domains each get a key" (fun () ->
        let app = Result.get_ok (Apps.Portfolio.create ()) in
        (match Apps.Portfolio.seed app ~candidates:2 with
        | Ok () -> ()
        | Error m -> failwith m);
        let db = Apps.Portfolio.database app in
        let cookies =
          Array.init 2 (fun d ->
              let email = Printf.sprintf "candidate%d@school.cz" d in
              match
                Db.Database.exec db "SELECT private_key FROM candidates WHERE email = ?"
                  ~params:[ Db.Value.Text email ]
              with
              | Ok (Db.Database.Rows { rows = [ [| Db.Value.Text k |] ]; _ }) ->
                  Printf.sprintf "user=%s; private_key=%s" email k
              | _ -> Alcotest.fail "no key")
        in
        concurrent_creates ~db ~table:"documents" (Apps.Portfolio.handle app) (fun d i ->
            req ~cookies:cookies.(d) ~body:(Printf.sprintf "essay %d" i) Http.Meth.POST
              "/documents?filename=e.pdf"));
    test "sinks that handler domains append to keep every append" (fun () ->
        let n = 5_000 in
        let in_order d sent =
          List.filter_map
            (fun (who, i) -> if who = d then Some i else None)
            sent
          = List.init n Fun.id
        in
        Apps.Email.clear_outbox ();
        ignore
          (on_two_domains (fun d ->
               List.init n (fun i ->
                   Apps.Email.send ~recipient:(string_of_int d) ~subject:"s"
                     ~body:(string_of_int i))));
        let outbox =
          List.map
            (fun (m : Apps.Email.message) -> (int_of_string m.recipient, int_of_string m.body))
            (Apps.Email.outbox ())
        in
        Apps.Email.clear_outbox ();
        check_int "every message in the outbox" (2 * n) (List.length outbox);
        check_bool "each domain's messages in send order" true
          (in_order 0 outbox && in_order 1 outbox);
        let app = Result.get_ok (Apps.Voltron.create ()) in
        let region = Apps.Voltron.sync_buffer_region app in
        let context = C.Context.untrusted () in
        ignore
          (on_two_domains (fun d ->
               List.init n (fun i ->
                   match
                     C.Region.Critical.run region ~context
                       (C.Pcon.wrap_no_policy (Printf.sprintf "%d %d" d i))
                   with
                   | Ok () -> ()
                   | Error e -> Alcotest.fail (C.Region.error_to_string e))));
        let synced =
          List.map (fun code -> Scanf.sscanf code "%d %d" (fun d i -> (d, i))) (Apps.Voltron.synced app)
        in
        check_int "every sync recorded" (2 * n) (List.length synced);
        check_bool "each domain's syncs in order" true (in_order 0 synced && in_order 1 synced));
    test "a durable WebSubmit journals every acknowledged submit once" (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "sesame-parallel-durable-%d" (Unix.getpid ()))
        in
        rm_rf dir;
        let config = { Wal.Durable.sync = Wal.Durable.Fsync; checkpoint_every = Some 16 } in
        let open_app () =
          match Apps.Websubmit.create_durable ~durable_config:config ~data_dir:dir () with
          | Ok opened -> opened
          | Error m -> failwith m
        in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let app, store = open_app () in
        (match Apps.Websubmit.seed app ~students:4 ~questions:2 with
        | Ok () -> ()
        | Error m -> failwith m);
        let seeded = answer_rows app in
        let lsn0 = Wal.Durable.next_lsn store in
        let n = 1_000 in
        let run d =
          List.init n (fun i ->
              let answer = Printf.sprintf "d%d-%d" d i in
              let r =
                Apps.Websubmit.handle app
                  (req ~cookies:(Printf.sprintf "user=student%d@school.edu" d)
                     ~body:("answer=" ^ answer) Http.Meth.POST
                     (Printf.sprintf "/submit/1/%d" (10 + i)))
              in
              (status r, answer))
        in
        let answers = on_two_domains run in
        Apps.Email.clear_outbox ();
        check_bool "never poisoned" true
          (Db.Database.poisoned (Apps.Websubmit.database app) = None);
        let acked = List.filter_map (fun (s, a) -> if s = 201 then Some a else None) answers in
        check_int "every submit acknowledged" (2 * n) (List.length acked);
        check_int "one record per acknowledged write" (List.length acked)
          (Int64.to_int (Int64.sub (Wal.Durable.next_lsn store) lsn0));
        let live = answer_rows app in
        let fresh =
          List.filter_map
            (fun ((_, _, answer) as row) ->
              if List.mem row seeded then None else Some (Db.Value.to_text answer))
            live
        in
        check_bool "stored answers are the acknowledged ones" true
          (List.sort compare fresh = List.sort compare acked);
        ignore (Wal.Durable.close store);
        let reopened, store' = open_app () in
        Fun.protect ~finally:(fun () -> ignore (Wal.Durable.close store')) @@ fun () ->
        check_bool "recovered rows equal the live rows, ids included" true
          (answer_rows reopened = live));
  ]

let () =
  Alcotest.run "parallel"
    [
      ("counters", counter_tests);
      ("enforce", enforce_tests);
      ("differential", qcheck_tests);
      ("snapshot", snapshot_tests);
      ("hammer", hammer_tests);
      ("websubmit", websubmit_tests);
      ("writes", write_tests);
    ]
