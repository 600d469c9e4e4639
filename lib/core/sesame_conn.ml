module Db = Sesame_db

type error =
  | Untrusted_context
  | Policy_denied of {
      policy : string;
      context : string;
      sink : string;
      param_index : int option;
    }
  | Db_error of { message : string; transient : bool }
  | Breaker_open of { sink : string }
  | Deadline_exceeded of { sink : string; message : string }
  | Brownout_write_refused of { sink : string }

let pp_error fmt = function
  | Untrusted_context ->
      Format.pp_print_string fmt "built-in sinks require a Sesame-created (trusted) context"
  | Policy_denied { policy; context; sink; param_index } ->
      Format.fprintf fmt "policy check failed at sink %s%s: %s against context [%s]" sink
        (match param_index with
        | Some i -> Printf.sprintf " (parameter %d)" i
        | None -> "")
        policy context
  | Db_error { message; transient } ->
      Format.fprintf fmt "database error (%s): %s"
        (if transient then "transient" else "permanent")
        message
  | Breaker_open { sink } ->
      Format.fprintf fmt "circuit breaker open for sink %s: failing closed" sink
  | Deadline_exceeded { sink; message } ->
      Format.fprintf fmt "request budget exhausted at sink %s: %s" sink message
  | Brownout_write_refused { sink } ->
      Format.fprintf fmt
        "durable store is in read-only brownout: write refused at sink %s" sink

(* Transient faults are worth retrying (contention, lost connections, the
   injector's Exhaust action); everything else — SQL errors, missing
   tables, type mismatches — is deterministic and must fail immediately. *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let transient_markers =
  [ "transient:"; "timeout"; "timed out"; "unavailable"; "connection"; "deadlock" ]

let is_transient_db_message message =
  let lower = String.lowercase_ascii message in
  List.exists (contains_substring lower) transient_markers

(* Deadline refusals surface through the ordinary error channel as
   messages prefixed [Sesame_request.marker]; reclassify them so they
   are never mistaken for backend faults (and never retried — a request
   that is out of budget only gets further out of budget). *)
let db_error_at ~sink message =
  if Sesame_request.is_deadline_error message then Deadline_exceeded { sink; message }
  else Db_error { message; transient = is_transient_db_message message }

let db_error message = db_error_at ~sink:"db" message

(* The one client-facing rendering of connector errors. Bodies are
   generic on purpose: backend messages (SQL errors, quarantine reasons,
   injected-fault descriptions) carry schema and infrastructure detail
   that must never be echoed to the requester — the structured error and
   the server log keep it. Every 503 carries Retry-After: each of those
   states (open breaker, exhausted budget, brownout) is expected to
   clear, and honest load generators use the hint to back off. *)
let unavailable ~retry_after_s body =
  Sesame_http.Response.add_header
    (Sesame_http.Response.error (Sesame_http.Status.Code 503) body)
    "Retry-After"
    (string_of_int (max 0 retry_after_s))

let error_response ?(retry_after_s = 1) = function
  | Untrusted_context ->
      Sesame_http.Response.error Sesame_http.Status.Forbidden "untrusted context"
  | Policy_denied _ ->
      Sesame_http.Response.error Sesame_http.Status.Forbidden "policy check failed"
  | Breaker_open _ -> unavailable ~retry_after_s "service temporarily unavailable"
  | Deadline_exceeded _ -> unavailable ~retry_after_s "request deadline exceeded"
  | Brownout_write_refused _ ->
      unavailable ~retry_after_s "store is read-only while degraded"
  | Db_error _ ->
      Sesame_http.Response.error Sesame_http.Status.Internal_error "internal error"

(* ------------------------------------------------------------------ *)
(* Sink resilience: retry with capped exponential backoff + jitter, and a
   per-sink circuit breaker. Both are deterministic given a seeded RNG
   and injected clock/sleep (tests use a fake clock; production uses
   Sesame_clock and a busy-wait sleep). *)

type retry_policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  jitter : float;
}

let default_retry =
  { max_attempts = 3; base_delay_s = 0.001; max_delay_s = 0.050; jitter = 0.2 }

type breaker_config = { failure_threshold : int; cooldown_s : float }

let default_breaker = { failure_threshold = 5; cooldown_s = 1.0 }

type breaker_state = Closed | Open | Half_open

let breaker_state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type health = {
  mutable bstate : breaker_state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable opens : int;
  mutable short_circuited : int;
  mutable retries : int;
  mutable attempts : int;
}

type sink_stats = {
  state : breaker_state;
  consecutive_failures : int;
  opens : int;  (** times the breaker tripped *)
  short_circuited : int;  (** calls rejected while open *)
  retries : int;
  attempts : int;
}

type policy_source = Db.Schema.t -> Db.Row.t -> Policy.t

type t = {
  mutable db : Db.Database.t;
  (* [db] is mutable for one reason only: {!exit_brownout} swaps in the
     recovered store. Every request-path read goes through
     [with_brownout_read], which re-reads the field per attempt. *)
  bindings : (string * string, policy_source) Hashtbl.t;  (* (table, column) *)
  (* Optional binding-level row-predicate translations: the pushdown
     source. [f ctx] must admit exactly the rows whose bound policy
     admits [ctx]; [None] (or a [None] result) falls back to post-hoc
     per-row checks. *)
  translations : (string * string, Context.t -> Db.Expr.t option) Hashtbl.t;
  (* App-certified leaf-family universe of a binding: every policy the
     binding produces has its conjunction leaves within this list. Lets
     [query_agg] consult elision certificates without instantiating a
     single per-row policy. Cleared on rebinding. *)
  certified_families : (string * string, string list) Hashtbl.t;
  (* One record per sink, all made by [create]: requests only read the
     table, so handler domains share it without a lock. *)
  health : (string, health) Hashtbl.t;
  mutable retry : retry_policy;
  mutable breaker : breaker_config;
  mutable rng : Random.State.t;
  mutable sleep : float -> unit;
  mutable now : unit -> float;
  (* Brownout: installed by [create_durable]. [snapshot_load] rebuilds
     the last consistent on-disk state read-only; [reopen] closes the
     poisoned store and recovers a fresh writable one. *)
  mutable snapshot_load : (unit -> (Db.Database.t, string) result) option;
  mutable reopen : (unit -> (Sesame_wal.Durable.t, string) result) option;
  mutable brownout : Db.Database.t option;
  mutable brownout_entries : int;
}

let busy_sleep seconds =
  if seconds > 0.0 then begin
    let deadline = Sesame_clock.now_s () +. seconds in
    while Sesame_clock.now_s () < deadline do
      ignore (Sys.opaque_identity ())
    done
  end

let create db =
  let health = Hashtbl.create 4 in
  List.iter
    (fun sink ->
      Hashtbl.replace health sink
        {
          bstate = Closed;
          consecutive_failures = 0;
          opened_at = 0.0;
          opens = 0;
          short_circuited = 0;
          retries = 0;
          attempts = 0;
        })
    [ "db::query"; "db::insert"; "db::execute" ];
  {
    db;
    bindings = Hashtbl.create 16;
    translations = Hashtbl.create 16;
    certified_families = Hashtbl.create 16;
    health;
    retry = default_retry;
    breaker = default_breaker;
    rng = Random.State.make [| 0x5e5a; 0xe |];
    sleep = busy_sleep;
    now = Sesame_clock.now_s;
    snapshot_load = None;
    reopen = None;
    brownout = None;
    brownout_entries = 0;
  }

let database t = t.db

(* ------------------------------------------------------------------ *)
(* Durable mode: the same connector over a crash-consistent store. The
   store's journal needs each row's policy provenance at write time;
   that is exactly what this connector's bindings know, so the
   provenance callback closes over the bindings table (shared with the
   connector built below) and instantiates the bound policy on the
   inserted row, flattening its conjuncts to (family name, parameters)
   pairs. Columns without a binding journal nothing — their cells are
   [NoPolicy] by construction and need no reconstruction. *)

let policy_leaves policy =
  Policy.conjuncts policy
  |> List.filter (fun leaf -> not (Policy.is_no_policy leaf))
  |> List.map (fun leaf ->
         { Sesame_wal.Provenance.ctor = Policy.name leaf; param = Policy.describe leaf })

let create_durable ?config ~dir () =
  Sesame_wal.Provenance.register (Policy.name Policy.no_policy);
  Sesame_wal.Provenance.register (Policy.name (Policy.deny_all ~reason:"builtin"));
  let bindings : (string * string, policy_source) Hashtbl.t = Hashtbl.create 16 in
  let store_ref = ref None in
  let provenance ~table ~column ~row =
    match Hashtbl.find_opt bindings (table, column) with
    | None -> []
    | Some source -> (
        let instantiated =
          match (row, !store_ref) with
          | Some row, Some store -> (
              match Db.Database.table (Sesame_wal.Durable.db store) table with
              | Some tbl -> ( try Some (source (Db.Table.schema tbl) row) with _ -> None)
              | None -> None)
          | _ -> None
        in
        match instantiated with Some p -> policy_leaves p | None -> [])
  in
  match Sesame_wal.Durable.open_store ?config ~provenance ~dir () with
  | Error _ as e -> e
  | Ok store ->
      store_ref := Some store;
      let snapshot_load () =
        match Sesame_wal.Durable.read_state ~dir with
        | Ok (db, _, _) -> Ok db
        | Error e -> Error (Sesame_wal.Durable.error_message e)
      in
      let reopen () =
        (match !store_ref with
        | Some old -> ignore (Sesame_wal.Durable.close old : (unit, string) result)
        | None -> ());
        match Sesame_wal.Durable.open_store ?config ~provenance ~dir () with
        | Error e -> Error (Sesame_wal.Durable.error_message e)
        | Ok store' ->
            store_ref := Some store';
            Ok store'
      in
      let t =
        {
          (create (Sesame_wal.Durable.db store)) with
          bindings;
          snapshot_load = Some snapshot_load;
          reopen = Some reopen;
        }
      in
      Ok (t, store)

let configure_resilience t ?retry ?breaker ?seed ?sleep ?now () =
  Option.iter (fun r -> t.retry <- r) retry;
  Option.iter (fun b -> t.breaker <- b) breaker;
  Option.iter (fun s -> t.rng <- Random.State.make [| s |]) seed;
  Option.iter (fun s -> t.sleep <- s) sleep;
  Option.iter (fun n -> t.now <- n) now

let health_for t sink =
  match Hashtbl.find_opt t.health sink with
  | Some h -> h
  | None -> invalid_arg ("Sesame_conn: no sink " ^ sink)

(* An open breaker becomes half-open once the cooldown has elapsed; the
   next admitted call is the probe. *)
let refresh t h =
  if h.bstate = Open && t.now () -. h.opened_at >= t.breaker.cooldown_s then
    h.bstate <- Half_open

let trip t h =
  h.bstate <- Open;
  h.opened_at <- t.now ();
  h.opens <- h.opens + 1

let record_success (h : health) =
  h.consecutive_failures <- 0;
  h.bstate <- Closed

let record_failure t (h : health) =
  h.consecutive_failures <- h.consecutive_failures + 1;
  match h.bstate with
  | Half_open -> trip t h (* the probe failed: straight back to open *)
  | Closed -> if h.consecutive_failures >= t.breaker.failure_threshold then trip t h
  | Open -> ()

let sink_stats t sink : sink_stats =
  let h = health_for t sink in
  refresh t h;
  {
    state = h.bstate;
    consecutive_failures = h.consecutive_failures;
    opens = h.opens;
    short_circuited = h.short_circuited;
    retries = h.retries;
    attempts = h.attempts;
  }

let breaker_state t ~sink = (sink_stats t sink).state

(* Backoff before retry [k] (1-based): min(max, base·2^(k-1)), spread by
   ±jitter. The RNG is the connector's seeded state, so a fixed seed
   reproduces the exact delay sequence. *)
let backoff_delay t k =
  let exp = t.retry.base_delay_s *. (2.0 ** float_of_int (k - 1)) in
  let capped = Float.min t.retry.max_delay_s exp in
  let spread = 1.0 +. (t.retry.jitter *. ((2.0 *. Random.State.float t.rng 1.0) -. 1.0)) in
  Float.max 0.0 (capped *. spread)

(* Every built-in sink operation runs through this: short-circuit when the
   breaker is open, retry transient DB failures with backoff, and feed the
   breaker with the outcome. Policy denials and permanent errors pass
   through untouched — they are verdicts, not service-health signals. *)
let with_resilience t ~sink op =
  let h = health_for t sink in
  refresh t h;
  match h.bstate with
  | Open ->
      h.short_circuited <- h.short_circuited + 1;
      Error (Breaker_open { sink })
  | Closed | Half_open ->
      (* A deadline expiry raised mid-operation (e.g. from a scan
         checkpoint reached outside the statement executor) is a verdict
         on this request's budget, not a health signal: surface it
         structured, feed the breaker nothing, never retry. *)
      let op () =
        try op ()
        with Sesame_request.Expired what ->
          Error (Deadline_exceeded { sink; message = Sesame_request.error_message what })
      in
      let rec attempt k =
        h.attempts <- h.attempts + 1;
        match op () with
        | Ok _ as ok ->
            record_success h;
            ok
        | Error (Db_error { transient = true; _ }) as e ->
            if k < t.retry.max_attempts then begin
              h.retries <- h.retries + 1;
              t.sleep (backoff_delay t k);
              attempt (k + 1)
            end
            else begin
              record_failure t h;
              e
            end
        | Error _ as e -> e
      in
      attempt 1

(* ------------------------------------------------------------------ *)

let attach_policy ?to_expr t ~table ~column source =
  Hashtbl.replace t.bindings (table, column) source;
  (match to_expr with
  | Some f -> Hashtbl.replace t.translations (table, column) f
  | None -> Hashtbl.remove t.translations (table, column));
  (* Any family certification described the previous binding. *)
  Hashtbl.remove t.certified_families (table, column)

let certify_binding t ~table ~column ~families =
  Hashtbl.replace t.certified_families (table, column) families

(* A binding staged on one statement's schema: the source's schema half
   (column positions) runs here, once, so each row pays only its row
   half. Unbound columns carry [NoPolicy]. *)
let stage_column t schema column =
  match Hashtbl.find_opt t.bindings (Db.Schema.name schema, column) with
  | Some source -> source schema
  | None -> fun _ -> Policy.no_policy

(* Every column of the statement's result, staged, by column position. *)
let stage_columns t schema =
  Array.init (Db.Schema.arity schema) (fun i ->
      stage_column t schema (Db.Schema.column_name schema i))

let ( let* ) = Result.bind

let require_trusted context =
  if Context.is_trusted context then Ok () else Error Untrusted_context

(* Sink handoff: a request that has already missed its budget is refused
   before any policy check or backend call runs. *)
let deadline_guard ~sink =
  match Sesame_request.guard ("sink " ^ sink) with
  | Ok () -> Ok ()
  | Error message -> Error (Deadline_exceeded { sink; message })

(* ------------------------------------------------------------------ *)
(* Brownout: read-only degraded serving over the last consistent on-disk
   snapshot while the live store is poisoned. *)

(* The poison guard's client-facing message (Sesame_db.Database.guard). *)
let is_quarantine_message msg = contains_substring msg "quarantined"

let in_brownout t = t.brownout <> None
let brownout_entries t = t.brownout_entries

(* Build (or reuse) the brownout snapshot. The Brownout_enter seam fires
   only on the transition; an injected fault there models the snapshot
   recovery itself failing, in which case reads keep failing closed
   exactly as they did before brownout existed. *)
let enter_brownout t =
  match t.brownout with
  | Some db -> Some db
  | None -> (
      match t.snapshot_load with
      | None -> None
      | Some load -> (
          match
            Sesame_faults.hit Sesame_faults.Brownout_enter;
            load ()
          with
          | Ok db ->
              t.brownout <- Some db;
              t.brownout_entries <- t.brownout_entries + 1;
              Some db
          | Error _ -> None
          | exception Sesame_faults.Injected _ -> None))

(* Run a read against the live store; when it refuses because the store
   is poisoned, fall back to the snapshot and mark the in-flight
   response degraded. Policy bindings are connector state, not database
   state, so snapshot rows are wrapped and checked exactly like live
   ones — brownout weakens freshness, never enforcement. *)
let with_brownout_read t op =
  match op t.db with
  | Error (Db_error { message; _ }) as e when is_quarantine_message message -> (
      match enter_brownout t with
      | None -> e
      | Some snap ->
          Sesame_request.mark_degraded "snapshot";
          op snap)
  | r -> r

(* A write against a poisoned-but-recoverable store is a structured
   read-only refusal (503 + Retry-After), not an opaque internal error:
   the client may retry after recovery. Stores without a snapshot path
   (purely in-memory fixtures) keep the old fail-closed rendering. *)
let classify_write_error t ~sink msg =
  if is_quarantine_message msg && t.snapshot_load <> None then
    Error (Brownout_write_refused { sink })
  else Error (db_error_at ~sink msg)

(* Leave brownout: close the poisoned store, recover a fresh writable
   one from disk, and swap it in. The Brownout_exit seam models a
   recovery that fails mid-exit — the connector then {e stays} degraded
   (snapshot reads, refused writes) rather than resuming on a
   half-recovered store. Returns the new store handle so callers can
   rebind checkpoint/flush plumbing. *)
let exit_brownout t =
  match t.reopen with
  | None -> Error "connector has no durable store to recover"
  | Some reopen -> (
      match
        Sesame_faults.hit Sesame_faults.Brownout_exit;
        reopen ()
      with
      | Ok store ->
          t.db <- Sesame_wal.Durable.db store;
          t.brownout <- None;
          Ok store
      | Error _ as e -> e
      | exception Sesame_faults.Injected { point; action; transient } ->
          Error (Sesame_faults.injected_message point action ~transient))

(* Fail closed: a policy check that raises — from its own (trusted but
   fallible) code, or from an injected fault at the policy-check seam —
   is a denial, never an escape hatch. *)
let check_param context ~sink ~index pcon =
  let context = Context.with_sink context sink in
  let denied policy =
    Error
      (Policy_denied
         { policy; context = Context.describe context; sink; param_index = Some index })
  in
  match
    Sesame_faults.hit Sesame_faults.Policy_check;
    Enforce.check_verbose (Pcon.policy pcon) context
  with
  | Ok () -> Ok ()
  | Error msg when Sesame_request.is_deadline_error msg ->
      (* A check abandoned for budget is not a verdict on the policy:
         surface it as the budget refusal it is, not as a denial. *)
      Error (Deadline_exceeded { sink; message = msg })
  | Error msg -> denied msg
  | exception Sesame_faults.Injected _ -> denied "policy check aborted by injected fault"
  | exception exn ->
      denied (Printf.sprintf "policy check raised (%s)" (Printexc.to_string exn))

let check_params context ~sink params =
  let rec go index = function
    | [] -> Ok ()
    | p :: rest ->
        let* () = check_param context ~sink ~index p in
        go (index + 1) rest
  in
  go 0 params

let unwrap_params params = List.map Pcon.Internal.unwrap params

(* Bindings are resolved once per statement; a row's cell still pays its
   policy only when the endpoint reads it. [schema] is the table the rows
   came from — the snapshot's during brownout. *)
let wrap_select_rows t schema rows =
  let policies = stage_columns t schema in
  let column_names =
    List.map (fun (c : Db.Schema.column) -> c.name) (Db.Schema.columns schema)
  in
  let wrap_row row =
    Pcon_row.Internal.make_lazy ~columns:column_names (fun column ->
        Option.map
          (fun i -> Pcon.Internal.make (policies.(i) row) row.(i))
          (Db.Schema.column_index schema column))
  in
  List.map wrap_row rows

(* The rows a [SELECT *] returns, with the schema they came from (the
   snapshot's during brownout): every row of the statement, or with
   [on], only the rows whose [on]-column policy admits the caller's
   context — the retrain-style shape: fetch every row you are allowed to
   use. The reference path for [on] materializes all matching rows and
   checks each distinct policy among them post-hoc. When pushdown is on
   and the [on] binding carries a translation that speaks for this
   context, the predicate is conjoined into the statement's WHERE
   instead: the table layer compiles the conjunction once, serves an
   equality or IN list on an indexed column from that index's buckets
   (it scans otherwise), never materializes denied rows, and
   instantiates no per-row policy objects. The translation admits
   exactly the rows the policy admits, so both paths return the same
   rows, in slot order. *)
let select t ~context ?on sql ~params =
  let* () = require_trusted context in
  let sink = "db::query" in
  let* () = deadline_guard ~sink in
  let* () = check_params context ~sink params in
  with_resilience t ~sink @@ fun () ->
  with_brownout_read t @@ fun db ->
  let raw_params = unwrap_params params in
  let pushed =
    match on with
    | Some on when Enforce.pushdown_enabled () -> (
        match Db.Sql.parse sql ~params:raw_params with
        | Ok (Db.Sql.Select { table; _ }) ->
            Option.bind (Hashtbl.find_opt t.translations (table, on)) (fun f -> f context)
        | _ -> None)
    | Some _ | None -> None
  in
  match pushed with
  | Some pred -> (
      match Db.Database.select_rows_under db sql ~params:raw_params ~pred:(Some pred) with
      | Error msg -> Error (db_error_at ~sink msg)
      | Ok _ as selected ->
          Enforce.note_pushdown ();
          selected)
  | None -> (
      match (Db.Database.select_rows db sql ~params:raw_params, on) with
      | Error msg, _ -> Error (db_error_at ~sink msg)
      | (Ok _ as selected), None -> selected
      | Ok (schema, rows), Some on ->
          (* One check per distinct (immutable, interned) policy
             instance, memoized for this statement only, as a render's
             memo is, so it needs no invalidation. *)
          let policy_of = stage_column t schema on in
          let verdicts : (int, bool) Hashtbl.t = Hashtbl.create 16 in
          let keep row =
            let policy = policy_of row in
            match Hashtbl.find_opt verdicts (Policy.id policy) with
            | Some verdict -> verdict
            | None ->
                let verdict = Enforce.check policy context in
                Hashtbl.add verdicts (Policy.id policy) verdict;
                verdict
          in
          Ok (schema, List.filter keep rows))

let query t ~context sql ~params =
  let* schema, rows = select t ~context sql ~params in
  Ok (wrap_select_rows t schema rows)

let query_filtered t ~context ~on sql ~params =
  let* schema, rows = select t ~context ~on sql ~params in
  Ok (wrap_select_rows t schema rows)

type folded = { rows : int; payload : Db.Value.t array list Pcon.t }

(* The per-row wrap, read and fold-out, done once per statement: the
   named columns are resolved and their bindings staged here, each row
   pays only its staged policies and the copy of its named cells, and
   the distinct instances are collected by id in first-seen order — the
   member order [Fold.out_list] gives the same cells wrapped one by
   one. *)
let fold_rows t schema rows ~columns =
  let positions = Array.of_list (List.map (Db.Schema.column_index_exn schema) columns) in
  let staged = Array.of_list (List.map (stage_column t schema) columns) in
  let width = Array.length positions in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let distinct = ref [] in
  (* Loops, not [Array.iter]/[Array.map]: a row allocates only its
     cells' array, not a closure per column walk. *)
  let values =
    List.map
      (fun row ->
        let cells = Array.make width Db.Value.Null in
        for j = 0 to width - 1 do
          let policy = staged.(j) row in
          if not (Hashtbl.mem seen (Policy.id policy)) then begin
            Hashtbl.add seen (Policy.id policy) ();
            distinct := policy :: !distinct
          end;
          cells.(j) <- row.(positions.(j))
        done;
        cells)
      rows
  in
  {
    rows = List.length rows;
    payload = Pcon.Internal.make (Policy.conjoin_all (List.rev !distinct)) values;
  }

let query_fold t ~context ?on sql ~params ~columns =
  let* schema, rows = select t ~context ?on sql ~params in
  Ok (fold_rows t schema rows ~columns)

(* For aggregates we need the matching raw rows to build the conjunction of
   the aggregated column's per-row policies. When some bound column's
   conjunction is not discharged by elision, the statement returns each
   group's member rows from the same scan that computed its aggregates,
   so a concurrent write cannot leave a released cell without its
   contributors' policies. The per-group build — instantiating per-row
   policies and conjoining them — runs on every request, for each group
   and aggregated column that elision does not discharge; a binding's
   [to_expr] is not consulted here. *)
let query_agg t ~context sql ~params =
  let* () = require_trusted context in
  let sink = "db::query" in
  let* () = deadline_guard ~sink in
  let* () = check_params context ~sink params in
  with_resilience t ~sink @@ fun () ->
  with_brownout_read t @@ fun db ->
  let raw_params = unwrap_params params in
  match Db.Sql.parse sql ~params:raw_params with
  | Error msg -> Error (db_error_at ~sink msg)
  | Ok (Db.Sql.Select_agg { table; aggregates; group_by; _ } as stmt) -> (
      (* Elision fast path: the app certified the binding's leaf
         families, declared the endpoint's release sinks, and a plan
         certificate covers every (sink, family) pair under this
         request's context — so every per-row policy the group
         conjunction would contain is identically Ok at release
         time. The whole build (member rows included) is skipped;
         the certified checks could never deny, so the cell's
         verdict at every declared sink is unchanged. Decided once
         per column and statement, so that member rows are fetched
         for every column the decision leaves to a build. *)
      let certified = Hashtbl.create 4 in
      let binding_certified column =
        match Hashtbl.find_opt certified column with
        | Some c -> c
        | None ->
            let c =
              Enforce.elision ()
              && Enforce.Plan.active ()
              &&
              match Hashtbl.find_opt t.certified_families (table, column) with
              | None -> false
              | Some families -> (
                  match Enforce.Plan.endpoint_sinks context with
                  | Some (_ :: _ as sinks) ->
                      List.for_all
                        (fun s ->
                          let rctx = Context.with_sink context s in
                          List.for_all
                            (fun f -> Enforce.Plan.certified_leaf ~sink:s ~family:f rctx)
                            families)
                        sinks
                  | Some [] | None -> false)
            in
            Hashtbl.add certified column c;
            c
      in
      let bound column = Hashtbl.mem t.bindings (table, column) in
      (* The column each result column reads: a group key's own, an
         aggregate's argument ([None] for COUNT( * )). *)
      let sources =
        List.map Option.some group_by @ List.map Db.Sql.aggregate_column aggregates
      in
      let need_members =
        List.exists
          (function Some column -> bound column && not (binding_certified column) | None -> false)
          sources
      in
      match Db.Database.exec_groups db ~members:need_members stmt with
      | Error msg -> Error (db_error_at ~sink msg)
      | Ok (schema, columns, groups) ->
          let policy_for_group column members =
            if not (bound column) then Policy.no_policy
            else if binding_certified column then begin
              Enforce.note_elision ();
              Policy.no_policy
            end
            else Policy.conjoin_distinct (List.map (stage_column t schema column) members)
          in
          let wrap_row (out_row, members) =
            (* Several cells may aggregate the same column (e.g. AVG
               and COUNT over grades); they share one conjunction. *)
            let column_policies = Hashtbl.create 4 in
            let policy_for = function
              | None -> Policy.no_policy
              | Some col -> (
                  match Hashtbl.find_opt column_policies col with
                  | Some policy -> policy
                  | None ->
                      let policy = policy_for_group col members in
                      Hashtbl.add column_policies col policy;
                      policy)
            in
            List.mapi
              (fun i (label, source) -> (label, Pcon.Internal.make (policy_for source) out_row.(i)))
              (List.combine columns sources)
          in
          Ok (List.map wrap_row groups))
  | Ok (Db.Sql.Select _ | Db.Sql.Insert _ | Db.Sql.Update _ | Db.Sql.Delete _) ->
      Error (db_error "query_agg expects an aggregate SELECT")

let insert t ~context ~table cells =
  let* () = require_trusted context in
  let sink = "db::insert" in
  let* () = deadline_guard ~sink in
  let* () = check_params context ~sink (List.map snd cells) in
  (* Goes through the statement executor so it pays the same (possibly
     modeled) round-trip cost as any other write. *)
  let stmt =
    Db.Sql.Insert
      {
        table;
        columns = Some (List.map fst cells);
        values = List.map (fun (_, p) -> Pcon.Internal.unwrap p) cells;
      }
  in
  with_resilience t ~sink @@ fun () ->
  match Db.Database.exec_stmt t.db stmt with
  | Ok (Db.Database.Affected _) -> Ok ()
  | Ok (Db.Database.Rows _) -> Error (db_error "INSERT returned rows")
  | Error msg -> classify_write_error t ~sink msg

let execute t ~context sql ~params =
  let* () = require_trusted context in
  let sink = "db::execute" in
  let* () = deadline_guard ~sink in
  let* () = check_params context ~sink params in
  with_resilience t ~sink @@ fun () ->
  match Db.Database.exec t.db sql ~params:(unwrap_params params) with
  | Ok (Db.Database.Affected n) -> Ok n
  | Ok (Db.Database.Rows _) -> Error (db_error "execute expects UPDATE/DELETE/INSERT")
  | Error msg -> classify_write_error t ~sink msg

let param _t v = Pcon.wrap_no_policy v
