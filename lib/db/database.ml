type journal_event =
  | J_stmt of Sql.stmt
  | J_create of Schema.t
  | J_drop of string

type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable query_cost_ns : int;
  queries : int Atomic.t;  (* exact under concurrent statement execution *)
  mutable journal : (journal_event -> (unit, string) result) option;
  mutable poisoned : string option;
}

type exec_result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int

let create ?(query_cost_ns = 0) () =
  {
    tables = Hashtbl.create 8;
    query_cost_ns;
    queries = Atomic.make 0;
    journal = None;
    poisoned = None;
  }

let set_query_cost_ns t ns = t.query_cost_ns <- ns
let query_count t = Atomic.get t.queries
let reset_query_count t = Atomic.set t.queries 0

let set_journal t journal = t.journal <- journal
let poison t reason = if t.poisoned = None then t.poisoned <- Some reason
let poisoned t = t.poisoned

(* A store whose journal diverged from memory serves nothing — reads
   included — until it is reopened through recovery. The client-facing
   message is generic; the detailed reason stays in [poisoned]. *)
let guard t =
  match t.poisoned with
  | None -> Ok ()
  | Some _ -> Error "database quarantined: durable log write failed"

(* The write is applied first, journaled second: only statements the
   engine accepted reach the log, so recovery treats any replay failure
   as corruption rather than expected noise. A journal failure after a
   successful apply means memory and log have diverged — the statement is
   reported failed (never acknowledged) and the store is poisoned. *)
let journal_applied t event =
  match t.journal with
  | None -> Ok ()
  | Some journal -> (
      match journal event with
      | Ok () -> Ok ()
      | Error msg ->
          poison t msg;
          Error "durable log write failed; statement not acknowledged"
      | exception exn ->
          poison t (Printexc.to_string exn);
          Error "durable log write failed; statement not acknowledged")

let ( let* ) = Result.bind

let create_table t schema =
  let* () = guard t in
  let name = Schema.name schema in
  if Hashtbl.mem t.tables name then Error (Printf.sprintf "table %s already exists" name)
  else begin
    Hashtbl.add t.tables name (Table.create schema);
    Epoch.bump_structural ();
    match journal_applied t (J_create schema) with
    | Ok () -> Ok ()
    | Error _ as e ->
        (* Creation was not acknowledged: take the table back out so a
           recovered store and this one agree. *)
        Hashtbl.remove t.tables name;
        Epoch.bump_structural ();
        e
  end

let restore_table t schema rows =
  let name = Schema.name schema in
  if Hashtbl.mem t.tables name then
    Error (Printf.sprintf "table %s already exists" name)
  else
    match Table.of_rows schema rows with
    | Error _ as e -> e
    | Ok tbl ->
        Hashtbl.add t.tables name tbl;
        Epoch.bump_structural ();
        Ok ()

let table t name = Hashtbl.find_opt t.tables name

let ensure_index t ~table ~column =
  match Hashtbl.find_opt t.tables table with
  | None -> Error (Printf.sprintf "no table named %s" table)
  | Some tbl -> (
      match Table.ensure_index tbl column with
      | () -> Ok ()
      | exception Invalid_argument msg -> Error msg)

let table_exn t name =
  match table t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "no table named %s" name)

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort String.compare

let drop_table t name =
  let* () = guard t in
  match Hashtbl.find_opt t.tables name with
  | Some table -> begin
      Hashtbl.remove t.tables name;
      Epoch.bump_structural ();
      match journal_applied t (J_drop name) with
      | Ok () -> Ok ()
      | Error _ as e ->
          Hashtbl.add t.tables name table;
          Epoch.bump_structural ();
          e
    end
  | None -> Error (Printf.sprintf "no table named %s" name)

(* Busy-wait to model a round trip. The deadline must come from a
   monotonic wall clock: [Sys.time] is process CPU time, which both runs
   slow against real time (so the modeled latency was inflated) and is
   shared across threads. *)
let charge t =
  Sesame_faults.hit Sesame_faults.Db_query;
  Atomic.incr t.queries;
  if t.query_cost_ns > 0 then begin
    let deadline = Int64.add (Sesame_clock.now_ns ()) (Int64.of_int t.query_cost_ns) in
    while Sesame_clock.now_ns () < deadline do
      ignore (Sys.opaque_identity ())
    done
  end

let lookup t name =
  match table t name with
  | Some tbl -> Ok tbl
  | None -> Error (Printf.sprintf "no table named %s" name)

(* Early-terminating prefix: stops consuming once [n] elements are taken
   instead of materializing and scanning the whole list. *)
let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let run_plain_select tbl ~columns ~where ~order_by ~limit =
  let schema = Table.schema tbl in
  let* () = Expr.validate schema where in
  let* cols =
    match columns with
    | None -> Ok (List.map (fun (c : Schema.column) -> c.name) (Schema.columns schema))
    | Some cols -> (
        match List.find_opt (fun c -> not (Schema.mem schema c)) cols with
        | Some c -> Error (Printf.sprintf "table %s has no column %s" (Schema.name schema) c)
        | None -> Ok cols)
  in
  (* Without an ORDER BY, LIMIT pushes down into the scan itself; with
     one, every matching row is needed for the sort and the limit is an
     early-terminating prefix of the sorted rows. *)
  let rows =
    match order_by with
    | None -> Table.select ?limit tbl ~where
    | Some _ -> Table.select tbl ~where
  in
  let* rows =
    match order_by with
    | None -> Ok rows
    | Some (col, dir) -> (
        match Schema.column_index schema col with
        | None -> Error (Printf.sprintf "table %s has no column %s" (Schema.name schema) col)
        | Some i ->
            let cmp a b =
              let c = Value.compare a.(i) b.(i) in
              match dir with Sql.Asc -> c | Sql.Desc -> -c
            in
            let sorted = List.stable_sort cmp rows in
            Ok (match limit with None -> sorted | Some n -> take n sorted))
  in
  let positions = Array.of_list (List.map (Schema.column_index_exn schema) cols) in
  let projected = List.map (fun row -> Array.map (fun i -> row.(i)) positions) rows in
  Ok (Rows { columns = cols; rows = projected })

(* One aggregate's running state over a group's rows, fed in match
   order: [n] counts the rows (COUNT( * )) or the non-NULL values seen,
   [sum] adds them left to right from 0.0, and [best] holds the first
   minimum or maximum (a later value replaces it only when strictly
   smaller or larger). *)
type agg_state = { mutable n : int; mutable sum : float; mutable best : Value.t }

let fresh_states aggregates =
  Array.map (fun _ -> { n = 0; sum = 0.0; best = Value.Null }) aggregates

(* The per-row step of one aggregate, with its column resolved to a
   position once. *)
let agg_step schema agg =
  let at c = Schema.column_index_exn schema c in
  let non_null i f st (row : Row.t) =
    let v = row.(i) in
    if not (Value.is_null v) then begin
      st.n <- st.n + 1;
      f st v
    end
  in
  match agg with
  | Sql.Count_all -> fun st _ -> st.n <- st.n + 1
  | Sql.Count c -> non_null (at c) (fun _ _ -> ())
  | Sql.Sum c | Sql.Avg c -> non_null (at c) (fun st v -> st.sum <- st.sum +. Value.to_float v)
  | Sql.Min c -> non_null (at c) (fun st v -> if st.n = 1 || Value.compare v st.best < 0 then st.best <- v)
  | Sql.Max c -> non_null (at c) (fun st v -> if st.n = 1 || Value.compare v st.best > 0 then st.best <- v)

let agg_result agg st =
  match agg with
  | Sql.Count_all | Sql.Count _ -> Value.Int st.n
  | _ when st.n = 0 -> Value.Null
  | Sql.Sum _ -> Value.Float st.sum
  | Sql.Avg _ -> Value.Float (st.sum /. float_of_int st.n)
  | Sql.Min _ | Sql.Max _ -> st.best

let run_agg_select tbl ~aggregates ~where ~group_by =
  let schema = Table.schema tbl in
  let* () = Expr.validate schema where in
  let referenced = group_by @ List.filter_map Sql.aggregate_column aggregates in
  let* () =
    match List.find_opt (fun c -> not (Schema.mem schema c)) referenced with
    | Some c -> Error (Printf.sprintf "table %s has no column %s" (Schema.name schema) c)
    | None -> Ok ()
  in
  let aggs = Array.of_list aggregates in
  let steps = Array.map (agg_step schema) aggs in
  let feed states row = Array.iteri (fun k step -> step states.(k) row) steps in
  let finish states = Array.mapi (fun k agg -> agg_result agg states.(k)) aggs in
  let columns = group_by @ List.map Sql.aggregate_label aggregates in
  if group_by = [] then begin
    let states = fresh_states aggs in
    Table.fold_matching tbl ~where ~init:() ~f:(fun () row -> feed states row);
    Ok (Rows { columns; rows = [ finish states ] })
  end
  else begin
    (* Groups are keyed by the structural tuple of group-by values and
       kept in first-seen order; every aggregate folds in one pass over
       the matches. *)
    let positions = List.map (Schema.column_index_exn schema) group_by in
    let groups : (Value.t list, agg_state array) Hashtbl.t = Hashtbl.create 16 in
    let order =
      Table.fold_matching tbl ~where ~init:[] ~f:(fun order row ->
          let key = List.map (fun i -> row.(i)) positions in
          match Hashtbl.find_opt groups key with
          | Some states ->
              feed states row;
              order
          | None ->
              let states = fresh_states aggs in
              Hashtbl.add groups key states;
              feed states row;
              key :: order)
    in
    let out =
      List.rev_map
        (fun key -> Array.append (Array.of_list key) (finish (Hashtbl.find groups key)))
        order
    in
    Ok (Rows { columns; rows = out })
  end

let run_insert tbl ~columns ~values =
  let schema = Table.schema tbl in
  let* row =
    match columns with
    | Some cols ->
        if List.compare_lengths cols values <> 0 then
          Error "INSERT: column/value count mismatch"
        else Row.of_assoc schema (List.combine cols values)
    | None ->
        if List.compare_length_with values (Schema.arity schema) <> 0 then
          Error
            (Printf.sprintf "INSERT: expected %d values for table %s" (Schema.arity schema)
               (Schema.name schema))
        else Ok (Array.of_list values)
  in
  let* () = Table.insert tbl row in
  Ok (Affected 1)

(* An injected fault at the query seam must surface through the ordinary
   error channel — classifiable by the connector's retry machinery — not
   as an exception unwinding through the server. *)
let protect_faults f =
  try f () with
  | Sesame_faults.Injected { point; action; transient } ->
      Error (Sesame_faults.injected_message point action ~transient)
  | Sesame_deadline.Expired what -> Error (Sesame_deadline.error_message what)

(* Write admission: a mutation that has already missed its budget is
   refused here, before the engine applies anything — memory and journal
   never diverge over a deadline, so a late write can be refused without
   poisoning the store and without a torn journal record. The scan
   checkpoints inside [Table] can still abandon a mutation during its
   read phase (before any row changed); once the apply loop starts the
   statement runs to completion, journal included. *)
let admit_write () =
  Sesame_faults.hit Sesame_faults.Wal_commit_deadline;
  Sesame_deadline.guard "wal commit admission"

let exec_stmt t stmt =
  protect_faults @@ fun () ->
  let* () = guard t in
  let* () = Sesame_deadline.guard "db statement" in
  charge t;
  match stmt with
  | Sql.Select { table; columns; where; order_by; limit } ->
      let* tbl = lookup t table in
      run_plain_select tbl ~columns ~where ~order_by ~limit
  | Sql.Select_agg { table; aggregates; where; group_by } ->
      let* tbl = lookup t table in
      run_agg_select tbl ~aggregates ~where ~group_by
  | Sql.Insert { table; columns; values } ->
      let* tbl = lookup t table in
      let* () = admit_write () in
      let* result = run_insert tbl ~columns ~values in
      let* () = journal_applied t (J_stmt stmt) in
      Ok result
  | Sql.Update { table; set; where } ->
      let* tbl = lookup t table in
      let* () = Expr.validate (Table.schema tbl) where in
      let* () = admit_write () in
      let* n = Table.update tbl ~where ~set in
      let* () = journal_applied t (J_stmt stmt) in
      Ok (Affected n)
  | Sql.Delete { table; where } ->
      let* tbl = lookup t table in
      let* () = Expr.validate (Table.schema tbl) where in
      let* () = admit_write () in
      let n = Table.delete tbl ~where in
      let* () = journal_applied t (J_stmt stmt) in
      Ok (Affected n)

let exec t src ~params =
  let* stmt = Sql.parse src ~params in
  exec_stmt t stmt

let select_rows_under t src ~params ~pred =
  let* stmt = Sql.parse src ~params in
  match stmt with
  | Sql.Select { table; columns = None; where; order_by; limit } -> (
      let* () = guard t in
      let* tbl = lookup t table in
      (* The pushdown hook: an extra predicate (typically a policy's
         row translation) conjoined into the statement's own WHERE, so
         it rides the same index-candidate selection and early
         termination as any other predicate instead of being applied
         post-hoc to materialized rows. *)
      let* where =
        match pred with
        | None -> Ok where
        | Some extra ->
            let* () = Expr.validate (Table.schema tbl) extra in
            Ok (match where with Expr.True -> extra | w -> Expr.And (w, extra))
      in
      let* result =
        protect_faults (fun () ->
            let* () = Sesame_deadline.guard "db statement" in
            charge t;
            run_plain_select tbl ~columns:None ~where ~order_by ~limit)
      in
      match result with
      | Rows { rows; _ } -> Ok (Table.schema tbl, rows)
      | Affected _ -> assert false)
  | Sql.Select _ | Sql.Select_agg _ | Sql.Insert _ | Sql.Update _ | Sql.Delete _ ->
      Error "select_rows expects a SELECT * statement"

let select_rows t src ~params = select_rows_under t src ~params ~pred:None
