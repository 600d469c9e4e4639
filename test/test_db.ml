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
let eval_exn schema row e = Expr.compile schema e row

let expr_tests =
  [
    test "comparison operators" (fun () ->
        let holds e = eval_exn people row e in
        check_bool "eq" true (holds (Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Lit (Value.Int 7))));
        check_bool "ne" true (holds (Expr.Cmp (Expr.Ne, Expr.Col "id", Expr.Lit (Value.Int 8))));
        check_bool "lt" true (holds (Expr.Cmp (Expr.Lt, Expr.Col "age", Expr.Lit (Value.Int 40))));
        check_bool "ge" false (holds (Expr.Cmp (Expr.Ge, Expr.Col "age", Expr.Lit (Value.Int 40)))));
    test "boolean connectives" (fun () ->
        let t = Expr.True and f = Expr.Not Expr.True in
        let holds e = eval_exn people row e in
        check_bool "and" false (holds (Expr.And (t, f)));
        check_bool "or" true (holds (Expr.Or (f, t)));
        check_bool "not" true (holds (Expr.Not f)));
    test "null comparisons are false" (fun () ->
        let null_row = [| Value.Int 1; Value.Text "x"; Value.Null |] in
        check_bool "null cmp" false
          (eval_exn people null_row
             (Expr.Cmp (Expr.Eq, Expr.Col "age", Expr.Lit Value.Null)));
        check_bool "is_null" true (eval_exn people null_row (Expr.Is_null (Expr.Col "age"))));
    test "IN membership" (fun () ->
        check_bool "in" true
          (eval_exn people row (Expr.In (Expr.Col "id", [ Value.Int 1; Value.Int 7 ])));
        check_bool "not in" false
          (eval_exn people row (Expr.In (Expr.Col "id", [ Value.Int 2 ]))));
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
        Alcotest.check_raises "err" (Invalid_argument "table people has no column zzz")
          (fun () ->
            ignore
              (eval_exn people row (Expr.Cmp (Expr.Eq, Expr.Col "zzz", Expr.Lit Value.Null)))));
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
        check_int "count" 6 (List.length (q idx_db));
        (* A key of another type than the column still compares with
           [Value.equal] ([Float 3.0] = [Int 3]), as a scan does. *)
        let scan_where db where =
          List.filter where (items_rows db "SELECT * FROM items" [])
        in
        let by_grp = items_rows idx_db "SELECT * FROM items WHERE grp = ?" [ Value.Float 3.0 ] in
        check_bool "float key on a secondary index" true (by_grp = q scan_db);
        check_bool "float key on a secondary index = scan" true
          (by_grp = scan_where scan_db (fun r -> Value.equal r.(1) (Value.Float 3.0)));
        let by_pk = items_rows idx_db "SELECT * FROM items WHERE id = ?" [ Value.Float 3.0 ] in
        check_int "float key on the primary key" 1 (List.length by_pk);
        check_bool "float key on the primary key = scan" true
          (by_pk = scan_where scan_db (fun r -> Value.equal r.(0) (Value.Float 3.0))));
    test "IN on an indexed column equals full scan, in slot order" (fun () ->
        let scan_db = items_db () and idx_db = items_db () in
        (match Database.ensure_index idx_db ~table:"items" ~column:"grp" with
        | Ok () -> ()
        | Error m -> failwith m);
        let lists =
          Value.
            [
              [ Int 3 ];
              [ Int 3; Int 3; Int 5 ];
              [ Int 99; Int 1 ];
              [ Int 99 ];
              [];
              List.init 9 (fun k -> Int (k mod 4));
              (* A key of another type leaves the statement to a scan. *)
              [ Float 2.0; Int 4 ];
            ]
        in
        let agree stage =
          List.iter
            (fun vs ->
              let where =
                Expr.And (Expr.In (Expr.Col "grp", vs), Expr.Not (Expr.Is_null (Expr.Col "label")))
              in
              let q db = Table.select (Database.table_exn db "items") ~where in
              let got = q idx_db in
              check_bool (Format.asprintf "%s: %a" stage Expr.pp where) true (got = q scan_db);
              let ids = List.map (function [| Value.Int id; _; _ |] -> id | _ -> -1) got in
              check_bool (stage ^ ": slot order") true (ids = List.sort compare ids))
            lists
        in
        agree "fresh";
        (* Move rows between buckets, empty a slot, then ask again. *)
        List.iter
          (fun db ->
            items_exec db "UPDATE items SET grp = 3 WHERE id = 0" [];
            items_exec db "UPDATE items SET grp = 5 WHERE id = 3" [];
            items_exec db "UPDATE items SET grp = 1 WHERE grp = 4" [];
            items_exec db "DELETE FROM items WHERE id = 10" [];
            items_exec db "DELETE FROM items WHERE id IN (1, 8)" [])
          [ scan_db; idx_db ];
        agree "after update/delete";
        check_bool "SQL IN agrees" true
          (items_rows idx_db "SELECT * FROM items WHERE grp IN (?, ?)" [ Value.Int 3; Value.Int 5 ]
          = items_rows scan_db "SELECT * FROM items WHERE grp IN (?, ?)" [ Value.Int 3; Value.Int 5 ]);
        (* The probe really replaces the scan: with no candidates, no row
           is evaluated, so the unknown column is never reached; a scan
           reaches it on the first row. *)
        let where =
          Expr.And
            ( Expr.Cmp (Expr.Eq, Expr.Col "ghost", Expr.Lit (Value.Int 1)),
              Expr.In (Expr.Col "grp", [ Value.Int 99 ]) )
        in
        check_bool "indexed: no row evaluated" true
          (Table.select (Database.table_exn idx_db "items") ~where = []);
        check_bool "scan: evaluates rows" true
          (match Table.select (Database.table_exn scan_db "items") ~where with
          | _ -> false
          | exception Invalid_argument _ -> true));
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
  ]

(* ------------------------------------------------------------------ *)
(* Compiled statements against tree-walking references *)

let prop ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let mixed =
  Schema.make_exn ~name:"mixed" ~primary_key:"id"
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "i"; ty = Value.Tint; nullable = true };
      { Schema.name = "f"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "s"; ty = Value.Ttext; nullable = true };
      { Schema.name = "b"; ty = Value.Tbool; nullable = true };
    ]

(* Small pools, so equalities hit, lists repeat values, and [Int 1]
   meets [Float 1.0] and [-0.0] meets [0.0]. *)
let ints = Value.[ Null; Int (-1); Int 0; Int 1; Int 2; Int 3 ]
let floats = Value.[ Null; Float (-0.0); Float 0.0; Float 1.0; Float 2.5; Float (-1.0); Float nan ]
let texts = Value.[ Null; Text ""; Text "a"; Text "ab"; Text "ba"; Text "abc" ]
let bools = Value.[ Null; Bool true; Bool false ]
let any_value = QCheck.Gen.oneofl (ints @ floats @ texts @ bools)

let gen_rows =
  let open QCheck.Gen in
  let row id =
    map
      (fun (i, f, s, b) -> [| Value.Int id; i; f; s; b |])
      (quad (oneofl ints) (oneofl floats) (oneofl texts) (oneofl bools))
  in
  int_range 1 12 >>= fun n -> flatten_l (List.init n row)

let gen_expr =
  let open QCheck.Gen in
  let operand =
    frequency
      [
        (4, map (fun c -> Expr.Col c) (oneofl [ "id"; "i"; "f"; "s"; "b" ]));
        (1, return (Expr.Col "ghost"));
        (3, map (fun v -> Expr.Lit v) any_value);
      ]
  in
  let leaf =
    frequency
      [
        (1, return Expr.True);
        ( 4,
          map3
            (fun op a b -> Expr.Cmp (op, a, b))
            (oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ])
            operand operand );
        (* Short and long lists, the empty list included. *)
        (4, map2 (fun a vs -> Expr.In (a, vs)) operand (list_size (int_bound 20) any_value));
        ( 2,
          map2
            (fun a p -> Expr.Like (a, p))
            operand
            (oneofl [ "a%"; "%b"; "_"; "%"; ""; "a_c"; "%a%" ]) );
        (1, map (fun a -> Expr.Is_null a) operand);
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (2, map2 (fun a b -> Expr.And (a, b)) (self (n - 1)) (self (n - 1)));
               (2, map2 (fun a b -> Expr.Or (a, b)) (self (n - 1)) (self (n - 1)));
               (1, map (fun a -> Expr.Not a) (self (n - 1)));
             ])

(* The reference: a direct tree walk that looks every column up by name
   on every row. *)
let reference_eval schema row e =
  let exception Unknown of string in
  let operand = function
    | Expr.Lit v -> v
    | Expr.Col c -> (
        match Row.get_opt schema row c with Some v -> v | None -> raise (Unknown c))
  in
  let cmp_holds op a b =
    match op with
    | Expr.Eq -> Value.equal a b
    | Expr.Ne -> not (Value.equal a b)
    | Expr.Lt -> Value.compare a b < 0
    | Expr.Le -> Value.compare a b <= 0
    | Expr.Gt -> Value.compare a b > 0
    | Expr.Ge -> Value.compare a b >= 0
  in
  let rec go = function
    | Expr.True -> true
    | Expr.Cmp (op, a, b) ->
        let va = operand a in
        let vb = operand b in
        if Value.is_null va || Value.is_null vb then false else cmp_holds op va vb
    | Expr.And (a, b) -> go a && go b
    | Expr.Or (a, b) -> go a || go b
    | Expr.Not a -> not (go a)
    | Expr.In (a, vs) ->
        let va = operand a in
        (not (Value.is_null va)) && List.exists (Value.equal va) vs
    | Expr.Like (a, pattern) -> (
        match operand a with
        | Value.Text s -> Expr.like_matches ~pattern s
        | Value.Null | Value.Int _ | Value.Float _ | Value.Bool _ -> false)
    | Expr.Is_null a -> Value.is_null (operand a)
  in
  match go e with
  | holds -> Ok holds
  | exception Unknown c ->
      Error (Printf.sprintf "table %s has no column %s" (Schema.name schema) c)

let arb_expr_rows =
  QCheck.make
    ~print:(fun (e, rows) ->
      Format.asprintf "%a@ over@ %a" Expr.pp e
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Row.pp)
        rows)
    QCheck.Gen.(pair gen_expr gen_rows)

(* Bit-exact value equality: tells [-0.0] from [0.0] and matches NaNs. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_rows a b =
  List.length a = List.length b
  && List.for_all2 (fun r r' -> Array.length r = Array.length r' && Array.for_all2 same_value r r') a b

let agg_schema =
  Schema.make_exn ~name:"agg" ~primary_key:"id"
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "g"; ty = Value.Tint; nullable = true };
      { Schema.name = "h"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "x"; ty = Value.Tint; nullable = true };
      { Schema.name = "y"; ty = Value.Tfloat; nullable = true };
      { Schema.name = "s"; ty = Value.Ttext; nullable = true };
    ]

let gen_agg_case =
  let open QCheck.Gen in
  let row id =
    map
      (fun ((g, h), (x, y, s)) -> [| Value.Int id; g; h; x; y; s |])
      (pair
         (pair (oneofl Value.[ Null; Int 1; Int 2 ]) (oneofl Value.[ Null; Float 1.0; Float (-0.0); Float 0.0 ]))
         (triple
            (oneofl Value.[ Null; Int (-3); Int 0; Int 5; Int 5 ])
            (oneofl Value.[ Null; Float 0.1; Float 0.2; Float 0.3; Float (-0.0); Float 0.0; Float 1e16; Float 1.0 ])
            (oneofl Value.[ Null; Text "a"; Text "b" ])))
  in
  let agg =
    oneof
      [
        return Sql.Count_all;
        map (fun c -> Sql.Count c) (oneofl [ "x"; "y"; "s" ]);
        map (fun c -> Sql.Sum c) (oneofl [ "x"; "y" ]);
        map (fun c -> Sql.Avg c) (oneofl [ "x"; "y" ]);
        map (fun c -> Sql.Min c) (oneofl [ "x"; "y"; "s" ]);
        map (fun c -> Sql.Max c) (oneofl [ "x"; "y"; "s" ]);
      ]
  in
  let where =
    oneofl
      Expr.
        [
          True;
          Cmp (Gt, Col "x", Lit (Value.Int 0));
          Is_null (Col "y");
          In (Col "g", [ Value.Int 1; Value.Float 2.0 ]);
          Not (Is_null (Col "h"));
        ]
  in
  int_range 0 30 >>= fun n ->
  map3
    (fun rows aggregates (group_by, where) -> (rows, aggregates, group_by, where))
    (flatten_l (List.init n row))
    (list_size (int_range 1 4) agg)
    (pair (oneofl [ []; [ "g" ]; [ "h" ]; [ "g"; "h" ]; [ "h"; "g" ]; [ "s" ] ]) where)

(* The list-based reference: select the matches, group them by the
   structural key tuple in first-seen order, then fold each aggregate
   over its own filtered value list. *)
let reference_agg tbl ~aggregates ~where ~group_by =
  let schema = Table.schema tbl in
  let compute rows agg =
    let values col =
      List.filter_map
        (fun row ->
          let v = Row.get schema row col in
          if Value.is_null v then None else Some v)
        rows
    in
    let sum vs = List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 vs in
    match agg with
    | Sql.Count_all -> Value.Int (List.length rows)
    | Sql.Count col -> Value.Int (List.length (values col))
    | Sql.Sum col -> (match values col with [] -> Value.Null | vs -> Value.Float (sum vs))
    | Sql.Avg col -> (
        match values col with
        | [] -> Value.Null
        | vs -> Value.Float (sum vs /. float_of_int (List.length vs)))
    | Sql.Min col -> (
        match values col with
        | [] -> Value.Null
        | v :: vs -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)
    | Sql.Max col -> (
        match values col with
        | [] -> Value.Null
        | v :: vs -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs)
  in
  let rows = Table.select tbl ~where in
  if group_by = [] then [ Array.of_list (List.map (compute rows) aggregates) ]
  else begin
    let groups : (Value.t list, Row.t list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun row ->
        let key = List.map (Row.get schema row) group_by in
        match Hashtbl.find_opt groups key with
        | Some cell -> cell := row :: !cell
        | None ->
            Hashtbl.add groups key (ref [ row ]);
            order := key :: !order)
      rows;
    List.rev_map
      (fun key ->
        let members = List.rev !(Hashtbl.find groups key) in
        Array.of_list (key @ List.map (compute members) aggregates))
      !order
  end

let arb_agg_case =
  QCheck.make
    ~print:(fun (rows, aggregates, group_by, where) ->
      Format.asprintf "SELECT %s WHERE %a GROUP BY %s over %d rows: %a"
        (String.concat ", " (List.map Sql.aggregate_label aggregates))
        Expr.pp where (String.concat ", " group_by) (List.length rows)
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Row.pp)
        rows)
    gen_agg_case

let compile_tests =
  [
    prop "compiled predicates agree with a tree-walking reference" arb_expr_rows
      (fun (e, rows) ->
        let holds = Expr.compile mixed e in
        List.for_all
          (fun row ->
            let got =
              match holds row with b -> Ok b | exception Invalid_argument msg -> Error msg
            in
            got = reference_eval mixed row e)
          rows);
    prop "single-pass aggregates equal the list-based reference" arb_agg_case
      (fun (rows, aggregates, group_by, where) ->
        let db = Database.create () in
        (match Database.create_table db agg_schema with Ok () -> () | Error m -> failwith m);
        let tbl = Database.table_exn db "agg" in
        List.iter (Table.insert_exn tbl) rows;
        match
          Database.exec_stmt db (Sql.Select_agg { table = "agg"; aggregates; where; group_by })
        with
        | Ok (Database.Rows { rows = got; _ }) ->
            same_rows got (reference_agg tbl ~aggregates ~where ~group_by)
        | Ok (Database.Affected _) -> false
        | Error m -> QCheck.Test.fail_reportf "exec: %s" m);
    test "hashed IN keeps Value.equal: cross-type numbers, signed zero, NaN" (fun () ->
        let many = List.init 10 (fun k -> Value.Int (100 + k)) in
        let holds vs v =
          Expr.compile mixed (Expr.In (Expr.Col "f", vs)) [| Value.Int 0; Value.Null; v; Value.Null; Value.Null |]
        in
        check_bool "Int 1 finds Float 1.0" true (holds (Value.Int 1 :: many) (Value.Float 1.0));
        check_bool "0.0 finds -0.0" true (holds (Value.Float 0.0 :: many) (Value.Float (-0.0)));
        check_bool "NaN finds nothing" false (holds (Value.Float nan :: many) (Value.Float nan));
        check_bool "NULL is never a member" false (holds (Value.Null :: many) Value.Null));
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
      ("compile", compile_tests);
    ]
