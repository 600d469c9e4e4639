open Sesame_db

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Values *)

let value_tests =
  [
    test "int/float compare numerically" (fun () ->
        check_bool "eq" true (Value.equal (Value.Int 2) (Value.Float 2.0));
        check_bool "lt" true (Value.compare (Value.Int 1) (Value.Float 1.5) < 0));
    test "null equals null, nothing else" (fun () ->
        check_bool "null=null" true (Value.equal Value.Null Value.Null);
        check_bool "null<>0" false (Value.equal Value.Null (Value.Int 0)));
    test "cross-type ordering is total" (fun () ->
        let vs = [ Value.Text "a"; Value.Null; Value.Bool true; Value.Int 1 ] in
        let sorted = List.sort Value.compare vs in
        check_int "length" 4 (List.length sorted);
        check_bool "null first" true (List.hd sorted = Value.Null));
    test "has_type treats Null as universal" (fun () ->
        check_bool "null:int" true (Value.has_type Value.Null Value.Tint);
        check_bool "text:int" false (Value.has_type (Value.Text "x") Value.Tint));
    test "to_float accepts ints" (fun () ->
        Alcotest.(check (float 0.0)) "coerce" 3.0 (Value.to_float (Value.Int 3)));
    test "to_int rejects text" (fun () ->
        check_bool "raises" true
          (try
             ignore (Value.to_int (Value.Text "3"));
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Schema and rows *)

let people =
  Schema.make_exn ~name:"people" ~primary_key:"id"
    [
      { name = "id"; ty = Value.Tint; nullable = false };
      { name = "name"; ty = Value.Ttext; nullable = false };
      { name = "age"; ty = Value.Tint; nullable = true };
    ]

let schema_tests =
  [
    test "duplicate column rejected" (fun () ->
        check_bool "dup" true
          (Result.is_error
             (Schema.make ~name:"t"
                [
                  { name = "a"; ty = Value.Tint; nullable = false };
                  { name = "a"; ty = Value.Ttext; nullable = false };
                ])));
    test "empty schema rejected" (fun () ->
        check_bool "empty" true (Result.is_error (Schema.make ~name:"t" [])));
    test "primary key must name a column" (fun () ->
        check_bool "pk" true
          (Result.is_error
             (Schema.make ~name:"t" ~primary_key:"zzz"
                [ { name = "a"; ty = Value.Tint; nullable = false } ])));
    test "nullable primary key rejected" (fun () ->
        check_bool "pk null" true
          (Result.is_error
             (Schema.make ~name:"t" ~primary_key:"a"
                [ { name = "a"; ty = Value.Tint; nullable = true } ])));
    test "validate_row checks arity" (fun () ->
        check_bool "arity" true (Result.is_error (Schema.validate_row people [| Value.Int 1 |])));
    test "validate_row checks types" (fun () ->
        check_bool "type" true
          (Result.is_error (Schema.validate_row people [| Value.Int 1; Value.Int 2; Value.Null |])));
    test "validate_row checks nullability" (fun () ->
        check_bool "null" true
          (Result.is_error
             (Schema.validate_row people [| Value.Int 1; Value.Null; Value.Null |])));
    test "valid row accepted" (fun () ->
        check_bool "ok" true
          (Schema.validate_row people [| Value.Int 1; Value.Text "Ada"; Value.Null |] = Ok ()));
    test "row accessors" (fun () ->
        let row = [| Value.Int 7; Value.Text "Ada"; Value.Int 36 |] in
        check_bool "get" true (Row.get people row "name" = Value.Text "Ada");
        check_bool "get_opt unknown" true (Row.get_opt people row "zzz" = None);
        let row' = Row.set people row "age" (Value.Int 37) in
        check_bool "set fresh" true (Row.get people row "age" = Value.Int 36);
        check_bool "set new" true (Row.get people row' "age" = Value.Int 37));
    test "of_assoc fills nullable columns with Null" (fun () ->
        match Row.of_assoc people [ ("id", Value.Int 1); ("name", Value.Text "Ada") ] with
        | Ok row -> check_bool "age null" true (Row.get people row "age" = Value.Null)
        | Error m -> Alcotest.fail m);
    test "of_assoc rejects unknown columns" (fun () ->
        check_bool "unknown" true (Result.is_error (Row.of_assoc people [ ("ghost", Value.Int 1) ])));
  ]

(* ------------------------------------------------------------------ *)
(* Expressions *)

let row = [| Value.Int 7; Value.Text "Ada"; Value.Int 36 |]

let expr_tests =
  [
    test "comparison operators" (fun () ->
        let holds e = Expr.eval_exn people row e in
        check_bool "eq" true (holds (Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 7))));
        check_bool "ne" true (holds (Expr.Cmp (Expr.Ne, Expr.Col "id", Expr.Lit (Value.Int 8))));
        check_bool "lt" true (holds (Expr.Cmp (Expr.Lt, Expr.Col "age", Expr.Lit (Value.Int 40))));
        check_bool "ge" false (holds (Expr.Cmp (Expr.Ge, Expr.Col "age", Expr.Lit (Value.Int 40)))));
    test "boolean connectives" (fun () ->
        let t = Expr.True and f = Expr.Not Expr.True in
        let holds e = Expr.eval_exn people row e in
        check_bool "and" false (holds (Expr.And (t, f)));
        check_bool "or" true (holds (Expr.Or (f, t)));
        check_bool "not" true (holds (Expr.Not f)));
    test "null comparisons are false" (fun () ->
        let null_row = [| Value.Int 1; Value.Text "x"; Value.Null |] in
        check_bool "null cmp" false
          (Expr.eval_exn people null_row
             (Expr.Cmp (Expr.Eq, Expr.Col "age", Expr.Lit Value.Null)));
        check_bool "is_null" true (Expr.eval_exn people null_row (Expr.Is_null (Expr.Col "age"))));
    test "IN membership" (fun () ->
        check_bool "in" true
          (Expr.eval_exn people row (Expr.In (Expr.Col "id", [ Value.Int 1; Value.Int 7 ])));
        check_bool "not in" false
          (Expr.eval_exn people row (Expr.In (Expr.Col "id", [ Value.Int 2 ]))));
    test "LIKE wildcard matching" (fun () ->
        check_bool "pct" true (Expr.like_matches ~pattern:"A%" "Ada");
        check_bool "underscore" true (Expr.like_matches ~pattern:"_da" "Ada");
        check_bool "middle" true (Expr.like_matches ~pattern:"%d%" "Ada");
        check_bool "no match" false (Expr.like_matches ~pattern:"B%" "Ada");
        check_bool "empty pattern" false (Expr.like_matches ~pattern:"" "Ada");
        check_bool "empty both" true (Expr.like_matches ~pattern:"" "");
        check_bool "pct only" true (Expr.like_matches ~pattern:"%" ""));
    test "LIKE backtracking" (fun () ->
        check_bool "backtrack" true (Expr.like_matches ~pattern:"%ab%ab" "abxabab"));
    test "unknown column is an error" (fun () ->
        check_bool "err" true
          (Result.is_error
             (Expr.eval people row (Expr.Cmp (Expr.Eq, Expr.Col "zzz", Expr.Lit Value.Null)))));
    test "columns collects references without duplicates" (fun () ->
        let e =
          Expr.And
            (Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Col "age"), Expr.Is_null (Expr.Col "id"))
        in
        Alcotest.(check (list string)) "cols" [ "id"; "age" ] (Expr.columns e));
    test "equality_on finds pinned PK" (fun () ->
        let e =
          Expr.And
            ( Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 7)),
              Expr.Cmp (Expr.Gt, Expr.Col "age", Expr.Lit (Value.Int 1)) )
        in
        check_bool "found" true (Expr.equality_on e "id" = Some (Value.Int 7));
        check_bool "absent under OR" true (Expr.equality_on (Expr.Or (e, Expr.True)) "id" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Tables *)

let fresh_table () = Table.create people
let add tbl id name age = Table.insert_exn tbl [| Value.Int id; Value.Text name; age |]

let table_tests =
  [
    test "insert and select by primary key" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" (Value.Int 36);
        add tbl 2 "Grace" (Value.Int 45);
        let rows =
          Table.select tbl ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 2)))
        in
        check_int "one" 1 (List.length rows);
        check_bool "grace" true (Row.get people (List.hd rows) "name" = Value.Text "Grace"));
    test "duplicate primary key rejected" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" Value.Null;
        check_bool "dup" true
          (Result.is_error (Table.insert tbl [| Value.Int 1; Value.Text "Eve"; Value.Null |])));
    test "select full scan with predicate" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" (Value.Int 36);
        add tbl 2 "Grace" (Value.Int 45);
        add tbl 3 "Edsger" (Value.Int 72);
        check_int "older than 40" 2
          (List.length
             (Table.select tbl
                ~where:(Expr.Cmp (Expr.Gt, Expr.Col "age", Expr.Lit (Value.Int 40))))));
    test "update changes matching rows only" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" (Value.Int 36);
        add tbl 2 "Grace" (Value.Int 45);
        (match
           Table.update tbl
             ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 1)))
             ~set:[ ("age", Value.Int 37) ]
         with
        | Ok n -> check_int "updated" 1 n
        | Error m -> Alcotest.fail m);
        let ada =
          List.hd
            (Table.select tbl ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 1))))
        in
        check_bool "new age" true (Row.get people ada "age" = Value.Int 37));
    test "update to duplicate PK is refused atomically" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" Value.Null;
        add tbl 2 "Grace" Value.Null;
        check_bool "refused" true
          (Result.is_error
             (Table.update tbl
                ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 2)))
                ~set:[ ("id", Value.Int 1) ]));
        check_int "unchanged" 2 (Table.length tbl));
    test "pk update moves the index" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" Value.Null;
        ignore
          (Result.get_ok
             (Table.update tbl
                ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 1)))
                ~set:[ ("id", Value.Int 9) ]));
        check_int "found at 9" 1
          (List.length
             (Table.select tbl ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 9)))));
        check_int "gone at 1" 0
          (List.length
             (Table.select tbl ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 1))))));
    test "delete removes and frees the key" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" Value.Null;
        check_int "deleted" 1
          (Table.delete tbl ~where:(Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 1))));
        check_int "empty" 0 (Table.length tbl);
        add tbl 1 "Ada again" Value.Null;
        check_int "reinserted" 1 (Table.length tbl));
    test "insert copies the row (no aliasing)" (fun () ->
        let tbl = fresh_table () in
        let row = [| Value.Int 1; Value.Text "Ada"; Value.Null |] in
        Table.insert_exn tbl row;
        row.(1) <- Value.Text "mutated";
        let stored = List.hd (Table.to_list tbl) in
        check_bool "copied" true (Row.get people stored "name" = Value.Text "Ada"));
    test "grows past initial capacity" (fun () ->
        let tbl = fresh_table () in
        for i = 1 to 100 do
          add tbl i ("p" ^ string_of_int i) Value.Null
        done;
        check_int "all inserted" 100 (Table.length tbl));
    test "clear resets" (fun () ->
        let tbl = fresh_table () in
        add tbl 1 "Ada" Value.Null;
        Table.clear tbl;
        check_int "empty" 0 (Table.length tbl);
        add tbl 1 "Ada" Value.Null;
        check_int "reusable" 1 (Table.length tbl));
  ]

(* ------------------------------------------------------------------ *)
(* SQL + database *)

let fresh_db () =
  let db = Database.create () in
  (match Database.create_table db people with Ok () -> () | Error m -> failwith m);
  List.iter
    (fun (id, name, age) ->
      match
        Database.exec db "INSERT INTO people (id, name, age) VALUES (?, ?, ?)"
          ~params:[ Value.Int id; Value.Text name; age ]
      with
      | Ok _ -> ()
      | Error m -> failwith m)
    [ (1, "Ada", Value.Int 36); (2, "Grace", Value.Int 45); (3, "Edsger", Value.Null) ];
  db

let rows_of db sql params =
  match Database.exec db sql ~params with
  | Ok (Database.Rows { rows; _ }) -> rows
  | Ok (Database.Affected _) -> failwith "expected rows"
  | Error m -> failwith m

let sql_tests =
  [
    test "select star with parameter" (fun () ->
        let db = fresh_db () in
        let rows = rows_of db "SELECT * FROM people WHERE id = ?" [ Value.Int 2 ] in
        check_int "one" 1 (List.length rows));
    test "projection keeps requested order" (fun () ->
        let db = fresh_db () in
        match Database.exec db "SELECT name, id FROM people WHERE id = 1" ~params:[] with
        | Ok (Database.Rows { columns; rows = [ row ] }) ->
            Alcotest.(check (list string)) "cols" [ "name"; "id" ] columns;
            check_bool "order" true (row.(0) = Value.Text "Ada" && row.(1) = Value.Int 1)
        | _ -> Alcotest.fail "unexpected result");
    test "order by desc and limit" (fun () ->
        let db = fresh_db () in
        let rows = rows_of db "SELECT name FROM people ORDER BY age DESC LIMIT 1" [] in
        check_bool "grace first" true (List.hd rows = [| Value.Text "Grace" |]));
    test "keywords are case-insensitive" (fun () ->
        let db = fresh_db () in
        check_int "rows" 3 (List.length (rows_of db "select * from people" [])));
    test "string literal with escaped quote" (fun () ->
        let db = fresh_db () in
        ignore
          (Result.get_ok
             (Database.exec db "INSERT INTO people (id, name) VALUES (4, 'O''Brien')" ~params:[]));
        let rows = rows_of db "SELECT name FROM people WHERE id = 4" [] in
        check_bool "escaped" true (List.hd rows = [| Value.Text "O'Brien" |]));
    test "IS NOT NULL" (fun () ->
        let db = fresh_db () in
        check_int "two aged" 2
          (List.length (rows_of db "SELECT id FROM people WHERE age IS NOT NULL" [])));
    test "LIKE in SQL" (fun () ->
        let db = fresh_db () in
        check_int "G%" 1
          (List.length (rows_of db "SELECT id FROM people WHERE name LIKE 'G%'" [])));
    test "parenthesized boolean precedence" (fun () ->
        let db = fresh_db () in
        check_int "and/or" 2
          (List.length
             (rows_of db "SELECT id FROM people WHERE (id = 1 OR id = 2) AND age IS NOT NULL" [])));
    test "update and delete report affected counts" (fun () ->
        let db = fresh_db () in
        (match
           Database.exec db "UPDATE people SET age = ? WHERE id = ?"
             ~params:[ Value.Int 99; Value.Int 1 ]
         with
        | Ok (Database.Affected n) -> check_int "updated" 1 n
        | _ -> Alcotest.fail "update failed");
        match Database.exec db "DELETE FROM people WHERE age = 99" ~params:[] with
        | Ok (Database.Affected n) -> check_int "deleted" 1 n
        | _ -> Alcotest.fail "delete failed");
    test "aggregates without grouping" (fun () ->
        let db = fresh_db () in
        match
          Database.exec db "SELECT COUNT(*), AVG(age), MIN(age), MAX(age) FROM people" ~params:[]
        with
        | Ok (Database.Rows { rows = [ agg_row ]; _ }) ->
            check_bool "count" true (agg_row.(0) = Value.Int 3);
            check_bool "avg ignores nulls" true
              (match agg_row.(1) with
              | Value.Float f -> abs_float (f -. 40.5) < 1e-9
              | _ -> false);
            check_bool "min" true (Value.equal agg_row.(2) (Value.Int 36));
            check_bool "max" true (Value.equal agg_row.(3) (Value.Int 45))
        | _ -> Alcotest.fail "agg failed");
    test "aggregates over empty sets yield NULL (and COUNT 0)" (fun () ->
        let db = fresh_db () in
        match
          Database.exec db "SELECT COUNT(age), SUM(age) FROM people WHERE id = 99" ~params:[]
        with
        | Ok (Database.Rows { rows = [ agg_row ]; _ }) ->
            check_bool "count 0" true (agg_row.(0) = Value.Int 0);
            check_bool "sum null" true (agg_row.(1) = Value.Null)
        | _ -> Alcotest.fail "agg failed");
    test "group by preserves first-seen group order" (fun () ->
        let db = fresh_db () in
        ignore
          (Result.get_ok
             (Database.exec db "INSERT INTO people (id, name, age) VALUES (5, 'Ada', 20)"
                ~params:[]));
        match Database.exec db "SELECT COUNT(*) FROM people GROUP BY name" ~params:[] with
        | Ok (Database.Rows { columns; rows }) ->
            Alcotest.(check (list string)) "cols" [ "name"; "COUNT(*)" ] columns;
            check_int "groups" 3 (List.length rows);
            check_bool "first group is Ada x2" true
              (List.hd rows = [| Value.Text "Ada"; Value.Int 2 |])
        | _ -> Alcotest.fail "group failed");
    test "parameter count mismatch is an error" (fun () ->
        let db = fresh_db () in
        check_bool "too many" true
          (Result.is_error (Database.exec db "SELECT * FROM people" ~params:[ Value.Int 1 ]));
        check_bool "too few" true
          (Result.is_error (Database.exec db "SELECT * FROM people WHERE id = ?" ~params:[])));
    test "unknown table and column are errors" (fun () ->
        let db = fresh_db () in
        check_bool "table" true
          (Result.is_error (Database.exec db "SELECT * FROM ghosts" ~params:[]));
        check_bool "column" true
          (Result.is_error (Database.exec db "SELECT ghost FROM people" ~params:[])));
    test "syntax errors are reported, not raised" (fun () ->
        let db = fresh_db () in
        check_bool "parse" true (Result.is_error (Database.exec db "SELEKT * FROM people" ~params:[])));
    test "select_rows rejects non-star selects" (fun () ->
        let db = fresh_db () in
        check_bool "star only" true
          (Result.is_error (Database.select_rows db "SELECT id FROM people" ~params:[])));
    test "query_count tracks statements" (fun () ->
        let db = fresh_db () in
        Database.reset_query_count db;
        ignore (rows_of db "SELECT * FROM people" []);
        ignore (rows_of db "SELECT * FROM people" []);
        check_int "two" 2 (Database.query_count db));
    test "insert without column list requires full arity" (fun () ->
        let db = fresh_db () in
        check_bool "short" true
          (Result.is_error (Database.exec db "INSERT INTO people VALUES (9, 'X')" ~params:[]));
        check_bool "full" true
          (Result.is_ok (Database.exec db "INSERT INTO people VALUES (9, 'X', NULL)" ~params:[])));
    test "drop_table then recreate" (fun () ->
        let db = fresh_db () in
        check_bool "drop" true (Database.drop_table db "people" = Ok ());
        check_bool "gone" true
          (Result.is_error (Database.exec db "SELECT * FROM people" ~params:[]));
        check_bool "recreate" true (Database.create_table db people = Ok ()));
  ]

(* ------------------------------------------------------------------ *)
(* Secondary indexes and limit pushdown *)

let grp_schema =
  Schema.make_exn ~name:"items" ~primary_key:"id"
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "grp"; ty = Value.Tint; nullable = false };
      { Schema.name = "label"; ty = Value.Ttext; nullable = true };
    ]

let items_db ?(n = 40) () =
  let db = Database.create () in
  (match Database.create_table db grp_schema with Ok () -> () | Error m -> failwith m);
  for i = 0 to n - 1 do
    match
      Database.exec db "INSERT INTO items VALUES (?, ?, ?)"
        ~params:[ Value.Int i; Value.Int (i mod 7); Value.Text (Printf.sprintf "row%d" i) ]
    with
    | Ok _ -> ()
    | Error m -> failwith m
  done;
  db

let items_rows db sql params =
  match Database.exec db sql ~params with
  | Ok (Database.Rows { rows; _ }) -> rows
  | Ok _ -> failwith "expected rows"
  | Error m -> failwith m

let items_exec db sql params =
  match Database.exec db sql ~params with Ok _ -> () | Error m -> failwith m

let index_tests =
  [
    test "indexed select equals full scan, in insertion order" (fun () ->
        let scan_db = items_db () and idx_db = items_db () in
        (match Database.ensure_index idx_db ~table:"items" ~column:"grp" with
        | Ok () -> ()
        | Error m -> failwith m);
        let q db = items_rows db "SELECT * FROM items WHERE grp = ?" [ Value.Int 3 ] in
        check_bool "same rows same order" true (q scan_db = q idx_db);
        check_int "count" 6 (List.length (q idx_db)));
    test "ensure_index rejects unknown columns" (fun () ->
        let db = items_db () in
        check_bool "error" true
          (Result.is_error (Database.ensure_index db ~table:"items" ~column:"ghost")));
    test "index stays exact across update and delete" (fun () ->
        let db = items_db () in
        (match Database.ensure_index db ~table:"items" ~column:"grp" with
        | Ok () -> ()
        | Error m -> failwith m);
        (* Move a row into group 3, move one out, delete one. *)
        items_exec db "UPDATE items SET grp = 3 WHERE id = 0" [];
        items_exec db "UPDATE items SET grp = 5 WHERE id = 3" [];
        items_exec db "DELETE FROM items WHERE id = 10" [];
        let got = items_rows db "SELECT * FROM items WHERE grp = ?" [ Value.Int 3 ] in
        let ids =
          List.map (function [| Value.Int id; _; _ |] -> id | _ -> -1) got
        in
        check_bool "membership" true (ids = [ 0; 17; 24; 31; 38 ]);
        (* The probe must agree with a scan on an index-free copy. *)
        let fresh = items_db () in
        items_exec fresh "UPDATE items SET grp = 3 WHERE id = 0" [];
        items_exec fresh "UPDATE items SET grp = 5 WHERE id = 3" [];
        items_exec fresh "DELETE FROM items WHERE id = 10" [];
        check_bool "vs scan" true
          (got = items_rows fresh "SELECT * FROM items WHERE grp = ?" [ Value.Int 3 ]));
    test "limit returns the first k matches of the unlimited query" (fun () ->
        let db = items_db () in
        let all = items_rows db "SELECT * FROM items WHERE grp = ?" [ Value.Int 1 ] in
        let limited =
          items_rows db "SELECT * FROM items WHERE grp = ? LIMIT 3" [ Value.Int 1 ]
        in
        check_int "k" 3 (List.length limited);
        check_bool "prefix" true (limited = [ List.nth all 0; List.nth all 1; List.nth all 2 ]);
        (* Early termination must not bypass ORDER BY: sort first, then cut. *)
        let ordered =
          items_rows db "SELECT * FROM items WHERE grp = ? ORDER BY id DESC LIMIT 2"
            [ Value.Int 1 ]
        in
        let ids = List.map (function [| Value.Int id; _; _ |] -> id | _ -> -1) ordered in
        check_bool "sorted then cut" true (ids = [ 36; 29 ]));
    test "limit also applies on the indexed path" (fun () ->
        let db = items_db () in
        (match Database.ensure_index db ~table:"items" ~column:"grp" with
        | Ok () -> ()
        | Error m -> failwith m);
        let all = items_rows db "SELECT * FROM items WHERE grp = ?" [ Value.Int 1 ] in
        let limited =
          items_rows db "SELECT * FROM items WHERE grp = ? LIMIT 2" [ Value.Int 1 ]
        in
        check_bool "prefix" true (limited = [ List.nth all 0; List.nth all 1 ]));
    test "mutations bump the table's own generation" (fun () ->
        let db = items_db () in
        let ep = Epoch.for_table "items" in
        let g0 = Epoch.total_gen ep in
        items_exec db "UPDATE items SET grp = 6 WHERE id = 1" [];
        let g1 = Epoch.total_gen ep in
        check_bool "update bumps" true (g1 > g0);
        (* A miss (no rows matched) must not invalidate caches. *)
        items_exec db "UPDATE items SET grp = 6 WHERE id = 99999" [];
        check_int "no-op update" g1 (Epoch.total_gen ep);
        ignore (items_rows db "SELECT * FROM items" []);
        check_int "select does not bump" g1 (Epoch.total_gen ep));
  ]

let () =
  Alcotest.run "db"
    [
      ("value", value_tests);
      ("schema-row", schema_tests);
      ("expr", expr_tests);
      ("table", table_tests);
      ("sql", sql_tests);
      ("index", index_tests);
    ]
