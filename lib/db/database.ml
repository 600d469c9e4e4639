type journal_event =
  | J_stmt of Sql.stmt
  | J_create of Schema.t
  | J_drop of string

(* Whether the store serves: [Poisoned] once its journal diverged from
   memory, [Brownout] once a read has published the snapshot it serves
   reads from. *)
type health =
  | Live
  | Poisoned of string
  | Brownout of { reason : string; snapshot : t }

and t = {
  mutable tables : (string, Table.t) Hashtbl.t;  (* replaced whole by [refill] *)
  mutable query_cost_ns : int;
  queries : int Atomic.t;  (* exact under concurrent statement execution *)
  write : Mutex.t;  (* the write section: admission, apply and journal of one write *)
  mutable journal : (journal_event -> (unit, string) result) option;
  mutable snapshot_source : (unit -> (t, string) result) option;
  health : health Atomic.t;  (* the first poison reason wins *)
}

type exec_result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int

type error =
  | Permanent of string
  | Transient of string
  | Over_budget of string
  | Read_only

let create ?(query_cost_ns = 0) () =
  {
    tables = Hashtbl.create 8;
    query_cost_ns;
    queries = Atomic.make 0;
    write = Mutex.create ();
    journal = None;
    snapshot_source = None;
    health = Atomic.make Live;
  }

let set_query_cost_ns t ns = t.query_cost_ns <- ns
let query_count t = Atomic.get t.queries
let reset_query_count t = Atomic.set t.queries 0

let set_journal t journal = t.journal <- journal
let set_snapshot_source t load = t.snapshot_source <- Some load
let poison t reason = ignore (Atomic.compare_and_set t.health Live (Poisoned reason) : bool)

let poisoned t =
  match Atomic.get t.health with
  | Live -> None
  | Poisoned reason | Brownout { reason; _ } -> Some reason

let in_brownout t = match Atomic.get t.health with Brownout _ -> true | Live | Poisoned _ -> false
let exclusive t f = Mutex.protect t.write f

(* A store whose journal diverged from memory takes no write until it
   is reopened through recovery; it serves reads only from a snapshot
   ([reader]). The message is generic; the detailed reason stays in
   [poisoned]. *)
let quarantined = "database quarantined: durable log write failed"

let error_message = function
  | Permanent message | Transient message -> message
  | Over_budget what -> Sesame_request.error_message what
  | Read_only -> quarantined

(* Write admission: a poisoned store refuses, [Read_only] when a
   snapshot serves its reads, so the refusal invites a retry after
   recovery. *)
let admit_write t =
  match Atomic.get t.health with
  | Live -> Ok ()
  | Poisoned _ | Brownout _ -> Error (if t.snapshot_source = None then Permanent quarantined else Read_only)

let guard t = Result.map_error error_message (admit_write t)

(* [fresh]'s tables get the secondary indexes [t]'s same-named tables
   have. *)
let index_like t fresh =
  Hashtbl.iter
    (fun name tbl ->
      match Hashtbl.find_opt t.tables name with
      | Some old ->
          List.iter
            (fun column -> if Schema.mem (Table.schema tbl) column then Table.ensure_index tbl column)
            (Table.indexed_columns old)
      | None -> ())
    fresh.tables

(* The snapshot source's state, indexed as [t] is, behind the
   [brownout-enter] seam. [None] when there is none to have: an
   in-memory store, or a build that failed, after which reads keep
   failing closed. *)
let build_snapshot t =
  match t.snapshot_source with
  | None -> None
  | Some load -> (
      match
        Sesame_faults.hit Sesame_faults.Brownout_enter;
        load ()
      with
      | Ok snapshot ->
          index_like t snapshot;
          Some snapshot
      | Error _ | (exception Sesame_faults.Injected _) -> None)

(* The database a read statement reads: [t] while it is live, else the
   snapshot, marked on the request. The first read to find none builds
   it; one compare-and-set publishes it, so of domains building at
   once, the first to publish wins. *)
let rec reader t =
  match Atomic.get t.health with
  | Live -> Ok t
  | Brownout { snapshot; _ } ->
      Sesame_request.mark_degraded "snapshot";
      Ok snapshot
  | Poisoned reason as poisoned -> (
      match build_snapshot t with
      | None -> Error (Permanent quarantined)
      | Some snapshot ->
          ignore (Atomic.compare_and_set t.health poisoned (Brownout { reason; snapshot }) : bool);
          reader t)

let refill t ~from =
  index_like t from;
  t.tables <- from.tables;
  Atomic.set t.health Live

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
  exclusive t @@ fun () ->
  if Hashtbl.mem t.tables name then Error (Printf.sprintf "table %s already exists" name)
  else begin
    Hashtbl.add t.tables name (Table.create schema);
    match journal_applied t (J_create schema) with
    | Ok () -> Ok ()
    | Error _ as e ->
        (* Creation was not acknowledged: take the table back out so a
           recovered store and this one agree. *)
        Hashtbl.remove t.tables name;
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
  exclusive t @@ fun () ->
  match Hashtbl.find_opt t.tables name with
  | Some table -> begin
      Hashtbl.remove t.tables name;
      match journal_applied t (J_drop name) with
      | Ok () -> Ok ()
      | Error _ as e ->
          Hashtbl.add t.tables name table;
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

let positions_of schema columns = Array.of_list (List.map (Schema.column_index_exn schema) columns)

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
  (* [SELECT *] returns the stored rows themselves: they are never
     written once stored (see {!Table.select}). Only a column list
     projects. *)
  match columns with
  | None -> Ok (cols, rows)
  | Some _ ->
      let positions = positions_of schema cols in
      Ok (cols, List.map (fun row -> Array.map (fun i -> row.(i)) positions) rows)

(* GROUP BY keys are equal exactly when their structural tuples are:
   constructors stay apart, every NaN is one key and -0.0 is 0.0, as
   [compare] and [Hashtbl.hash] see them. [key_hash] agrees, hashing an
   int as itself. *)
let same_key a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y -> Float.compare x y = 0
  | _ -> a = b

let key_hash = function Value.Int i -> i | v -> Hashtbl.hash v

(* The rows [where] matches, grouped in one pass by their values at the
   key positions [by]; [add] feeds each group's [fresh] state its rows
   in match order. Keyed on the rows themselves, so no key is built.
   A row that falls in the previous row's group, as a run of clustered
   inserts does, joins it without hashing. Returns each group's first
   row and state in first-seen order. *)
let fold_groups tbl ~where ~by ~fresh ~add =
  let module Key = struct
    type t = Row.t

    let equal a b =
      let j = ref 0 in
      while !j < Array.length by && same_key a.(by.(!j)) b.(by.(!j)) do incr j done;
      !j = Array.length by

    let hash row =
      let h = ref 0 in
      for j = 0 to Array.length by - 1 do h := (!h * 31) + key_hash row.(by.(j)) done;
      !h
  end in
  let module Groups = Hashtbl.Make (Key) in
  let groups = Groups.create 16 in
  let previous = ref None in
  let order =
    Table.fold_matching tbl ~where ~init:[] ~f:(fun order row ->
        match !previous with
        | Some (first, state) when Key.equal first row ->
            add state row;
            order
        | Some _ | None -> (
            match Groups.find groups row with
            | group ->
                add (snd group) row;
                previous := Some group;
                order
            | exception Not_found ->
                let group = (row, fresh ()) in
                Groups.add groups row group;
                add (snd group) row;
                previous := Some group;
                group :: order))
  in
  List.rev order

(* One group's running aggregates, fed in match order. For aggregate
   [k] over the column at [cols.(k)], [n.(k)] counts the rows
   (COUNT( * )) or the non-NULL values seen, [sum.(k)] adds them left
   to right from 0.0 in an unboxed float array, and [best.(k)] holds
   the first minimum or maximum (a later value replaces it only when
   strictly smaller or larger). *)
type acc = { n : int array; sum : float array; best : Value.t array }

let feed aggs cols acc (row : Row.t) =
  for k = 0 to Array.length aggs - 1 do
    match aggs.(k) with
    | Sql.Count_all -> acc.n.(k) <- acc.n.(k) + 1
    | agg -> (
        let v = row.(cols.(k)) in
        if not (Value.is_null v) then begin
          acc.n.(k) <- acc.n.(k) + 1;
          match agg with
          | Sql.Sum _ | Sql.Avg _ ->
              acc.sum.(k) <- (acc.sum.(k) +. match v with Value.Float f -> f | _ -> Value.to_float v)
          | Sql.Min _ -> if acc.n.(k) = 1 || Value.compare v acc.best.(k) < 0 then acc.best.(k) <- v
          | Sql.Max _ -> if acc.n.(k) = 1 || Value.compare v acc.best.(k) > 0 then acc.best.(k) <- v
          | Sql.Count_all | Sql.Count _ -> ()
        end)
  done

let agg_result acc k = function
  | Sql.Count_all | Sql.Count _ -> Value.Int acc.n.(k)
  | _ when acc.n.(k) = 0 -> Value.Null
  | Sql.Sum _ -> Value.Float acc.sum.(k)
  | Sql.Avg _ -> Value.Float (acc.sum.(k) /. float_of_int acc.n.(k))
  | Sql.Min _ | Sql.Max _ -> acc.best.(k)

(* Each result row with its group's matching rows in match order when
   [members] (otherwise [[]]): one scan computes both. *)
let run_agg_select ~members tbl ~aggregates ~where ~group_by =
  let schema = Table.schema tbl in
  let* () = Expr.validate schema where in
  let referenced = group_by @ List.filter_map Sql.aggregate_column aggregates in
  let* () =
    match List.find_opt (fun c -> not (Schema.mem schema c)) referenced with
    | Some c -> Error (Printf.sprintf "table %s has no column %s" (Schema.name schema) c)
    | None -> Ok ()
  in
  let aggs = Array.of_list aggregates in
  let cols =
    Array.map (fun agg -> Option.fold ~none:(-1) ~some:(Schema.column_index_exn schema) (Sql.aggregate_column agg)) aggs
  in
  let k = Array.length aggs in
  let fresh () =
    ({ n = Array.make k 0; sum = Array.make k 0.0; best = Array.make k Value.Null }, ref [])
  in
  let add (acc, rows) row =
    feed aggs cols acc row;
    if members then rows := row :: !rows
  in
  let by = positions_of schema group_by in
  let groups = fold_groups tbl ~where ~by ~fresh ~add in
  (* Without GROUP BY an aggregate answers one row, over no rows too. *)
  let groups = match (groups, group_by) with [], [] -> [ ([||], fresh ()) ] | _ -> groups in
  let row (first, (acc, rows)) =
    (Array.append (Array.map (fun p -> first.(p)) by) (Array.mapi (agg_result acc) aggs), List.rev !rows)
  in
  Ok (group_by @ List.map Sql.aggregate_label aggregates, List.map row groups)

(* The row an INSERT binds, unchecked: {!Table.insert} validates it. *)
let insert_row tbl ~columns ~values =
  let schema = Table.schema tbl in
  match columns with
  | Some cols ->
      if List.compare_lengths cols values <> 0 then Error "INSERT: column/value count mismatch"
      else Row.of_assoc schema (List.combine cols values)
  | None ->
      if List.compare_length_with values (Schema.arity schema) <> 0 then
        Error
          (Printf.sprintf "INSERT: expected %d values for table %s" (Schema.arity schema)
             (Schema.name schema))
      else Ok (Array.of_list values)

(* The INSERT as the log records it once the store assigned [key]: the
   key leads the column list that left it out, or replaces its NULL. *)
let with_key tbl stmt key =
  let schema = Table.schema tbl in
  match (stmt, Schema.primary_key schema) with
  | Sql.Insert { table; columns = Some cols; values }, Some pk when not (List.mem pk cols) ->
      Sql.Insert { table; columns = Some (pk :: cols); values = key :: values }
  | Sql.Insert { table; columns; values }, Some pk ->
      let names =
        Option.value columns ~default:(List.init (Schema.arity schema) (Schema.column_name schema))
      in
      Sql.Insert
        { table; columns; values = List.map2 (fun c v -> if c = pk then key else v) names values }
  | _ -> stmt

let permanent r = Result.map_error (fun message -> Permanent message) r

(* An injected fault or a spent budget inside a statement surfaces as
   its class through the ordinary error channel, not as an exception
   unwinding through the server. *)
let classified f =
  try f () with
  | Sesame_faults.Injected { point; action; transient } ->
      let message = Sesame_faults.injected_message point action in
      Error (if transient then Transient message else Permanent message)
  | Sesame_request.Expired what -> Error (Over_budget what)

(* Every statement is refused on a spent budget, then charged one round
   trip to [t]. A read runs on the database it reads ([reader]). *)
let read t run =
  let* db = reader t in
  Sesame_request.check "db statement";
  charge t;
  permanent (run db)

(* A write is refused on a poisoned store, then admitted as a read is;
   [apply] and the journal of its event run in the write section, on
   the tables the store holds then: writes apply in the journal's
   order, and none to a store poisoned in the meantime. A mutation that
   has already missed its budget is refused at the section's door,
   before the engine applies anything, so a late write never poisons
   the store. The scan checkpoints inside [Table] can still abandon a
   mutation during its read phase (before any row changed); once the
   apply loop starts the statement runs to completion, journal
   included. *)
let write t apply =
  let* () = admit_write t in
  Sesame_request.check "db statement";
  charge t;
  exclusive t @@ fun () ->
  let* () = admit_write t in
  Sesame_faults.hit Sesame_faults.Wal_commit_deadline;
  Sesame_request.check "wal commit admission";
  let* result, event = permanent (apply ()) in
  let* () = permanent (journal_applied t event) in
  Ok result

let exec_stmt t stmt =
  classified @@ fun () ->
  match stmt with
  | Sql.Select { table; columns; where; order_by; limit } ->
      read t @@ fun db ->
      let* tbl = lookup db table in
      let* columns, rows = run_plain_select tbl ~columns ~where ~order_by ~limit in
      Ok (Rows { columns; rows })
  | Sql.Select_agg { table; aggregates; where; group_by } ->
      read t @@ fun db ->
      let* tbl = lookup db table in
      let* columns, groups = run_agg_select ~members:false tbl ~aggregates ~where ~group_by in
      Ok (Rows { columns; rows = List.map fst groups })
  | Sql.Insert { table; columns; values } ->
      write t @@ fun () ->
      let* tbl = lookup t table in
      let* row = insert_row tbl ~columns ~values in
      let* key = Table.insert tbl row in
      let logged = Option.fold ~none:stmt ~some:(fun k -> with_key tbl stmt (Value.Int k)) key in
      Ok (Affected 1, J_stmt logged)
  | Sql.Update { table; set; where } ->
      write t @@ fun () ->
      let* tbl = lookup t table in
      let* () = Expr.validate (Table.schema tbl) where in
      let* n = Table.update tbl ~where ~set in
      Ok (Affected n, J_stmt stmt)
  | Sql.Delete { table; where } ->
      write t @@ fun () ->
      let* tbl = lookup t table in
      let* () = Expr.validate (Table.schema tbl) where in
      Ok (Affected (Table.delete tbl ~where), J_stmt stmt)

let exec_groups t ~members stmt =
  match stmt with
  | Sql.Select_agg { table; aggregates; where; group_by } ->
      classified @@ fun () ->
      read t @@ fun db ->
      let* tbl = lookup db table in
      let* columns, groups = run_agg_select ~members tbl ~aggregates ~where ~group_by in
      Ok (Table.schema tbl, columns, groups)
  | Sql.Select _ | Sql.Insert _ | Sql.Update _ | Sql.Delete _ ->
      Error (Permanent "exec_groups expects an aggregate SELECT")

let exec t src ~params =
  let* stmt = Sql.parse src ~params in
  Result.map_error error_message (exec_stmt t stmt)

let select_rows_under t stmt ~pred =
  match stmt with
  | Sql.Select { table; columns = None; where; order_by; limit } ->
      classified @@ fun () ->
      read t @@ fun db ->
      let* tbl = lookup db table in
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
      let* _, rows = run_plain_select tbl ~columns:None ~where ~order_by ~limit in
      Ok (Table.schema tbl, rows)
  | Sql.Select _ | Sql.Select_agg _ | Sql.Insert _ | Sql.Update _ | Sql.Delete _ ->
      Error (Permanent "select_rows_under expects a SELECT * statement")
