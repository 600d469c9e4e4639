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
    test "bump invalidates even without a visible DB change" (fun () ->
        (* Plan certificates revalidate when the base moves, and a bump
           moves it with no DB write at all. *)
        let revalidations = ref 0 in
        let entry =
          C.Enforce.Plan.entry ~sink:"test::sink" ~family:"par::parity"
            ~guard:(fun _ -> true)
            ~revalidate:(fun () ->
              incr revalidations;
              true)
            ~witness:"test" ()
        in
        let ctx = C.Mock.context ~user:"ada" ~sink:"test::sink" () in
        let certified () =
          C.Enforce.Plan.certified_leaf ~sink:"test::sink" ~family:"par::parity" ctx
        in
        Fun.protect ~finally:C.Enforce.Plan.clear (fun () ->
            C.Enforce.Plan.install entry;
            check_bool "certified" true (certified ());
            let validated = !revalidations in
            check_bool "still certified" true (certified ());
            check_int "current base: no revalidation" validated !revalidations;
            C.Enforce.bump ();
            check_bool "revalidated" true (certified ());
            check_int "bump forces one revalidation" (validated + 1) !revalidations));
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
    ]
