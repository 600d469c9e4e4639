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

let permanent message = Db_error { message; transient = false }

let deadline_exceeded ~sink what =
  Deadline_exceeded { sink; message = Sesame_request.error_message what }

(* The store's class of a failure, at [sink]. Only a transient one is
   retried; a spent budget is a verdict on the request, not a backend
   fault, and a read-only store refused the write before applying it. *)
let db_error ~sink : Db.Database.error -> error = function
  | Transient message -> Db_error { message; transient = true }
  | Permanent message -> permanent message
  | Over_budget what -> deadline_exceeded ~sink what
  | Read_only -> Brownout_write_refused { sink }

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

(* Atomic cells: every handler domain updates them. *)
type health = {
  bstate : breaker_state Atomic.t;
  consecutive_failures : int Atomic.t;
  opened_at : float Atomic.t;
  opens : int Atomic.t;
  short_circuited : int Atomic.t;
  retries : int Atomic.t;
  attempts : int Atomic.t;
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
  db : Db.Database.t;
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
  mutable jitter : Random.State.t Domain.DLS.key;
  mutable sleep : float -> unit;
  mutable now : unit -> float;
}

(* One jitter state per domain: a [Random.State.t] is not domain-safe. *)
let jitter_states seed =
  Domain.DLS.new_key (fun () -> Random.State.make (Array.append seed [| (Domain.self () :> int) |]))

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
          bstate = Atomic.make Closed;
          consecutive_failures = Atomic.make 0;
          opened_at = Atomic.make 0.0;
          opens = Atomic.make 0;
          short_circuited = Atomic.make 0;
          retries = Atomic.make 0;
          attempts = Atomic.make 0;
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
    jitter = jitter_states [| 0x5e5a; 0xe |];
    sleep = busy_sleep;
    now = Sesame_clock.now_s;
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
  let provenance ~schema ~column ~row =
    match (Hashtbl.find_opt bindings (Db.Schema.name schema, column), row) with
    | Some source, Some row -> (
        match source schema row with
        | policy -> policy_leaves policy
        | exception _ -> [])
    | _ -> []
  in
  match Sesame_wal.Durable.open_store ?config ~provenance ~dir () with
  | Error _ as e -> e
  | Ok store -> Ok ({ (create (Sesame_wal.Durable.db store)) with bindings }, store)

let configure_resilience t ?retry ?breaker ?seed ?sleep ?now () =
  Option.iter (fun r -> t.retry <- r) retry;
  Option.iter (fun b -> t.breaker <- b) breaker;
  Option.iter (fun s -> t.jitter <- jitter_states [| s |]) seed;
  Option.iter (fun s -> t.sleep <- s) sleep;
  Option.iter (fun n -> t.now <- n) now

let health_for t sink =
  match Hashtbl.find_opt t.health sink with
  | Some h -> h
  | None -> invalid_arg ("Sesame_conn: no sink " ^ sink)

(* An open breaker becomes half-open once the cooldown has elapsed; the
   next admitted call is the probe. *)
let refresh t h =
  if Atomic.get h.bstate = Open && t.now () -. Atomic.get h.opened_at >= t.breaker.cooldown_s
  then ignore (Atomic.compare_and_set h.bstate Open Half_open : bool)

(* One compare-and-set opens the breaker, so a trip counts once. *)
let trip t h ~from =
  Atomic.set h.opened_at (t.now ());
  if Atomic.compare_and_set h.bstate from Open then Atomic.incr h.opens

(* Reads before writing, so healthy traffic leaves the record alone. *)
let record_success (h : health) =
  if Atomic.get h.consecutive_failures <> 0 then Atomic.set h.consecutive_failures 0;
  if Atomic.get h.bstate <> Closed then Atomic.set h.bstate Closed

let record_failure t (h : health) =
  let failures = 1 + Atomic.fetch_and_add h.consecutive_failures 1 in
  match Atomic.get h.bstate with
  | Half_open -> trip t h ~from:Half_open (* the probe failed: straight back to open *)
  | Closed -> if failures >= t.breaker.failure_threshold then trip t h ~from:Closed
  | Open -> ()

let sink_stats t sink : sink_stats =
  let h = health_for t sink in
  refresh t h;
  {
    state = Atomic.get h.bstate;
    consecutive_failures = Atomic.get h.consecutive_failures;
    opens = Atomic.get h.opens;
    short_circuited = Atomic.get h.short_circuited;
    retries = Atomic.get h.retries;
    attempts = Atomic.get h.attempts;
  }

let breaker_state t ~sink = (sink_stats t sink).state

(* Backoff before retry [k] (1-based): min(max, base·2^(k-1)), spread by
   ±jitter, drawn from this domain's state: a fixed seed reproduces
   each domain's exact delay sequence. *)
let backoff_delay t k =
  let exp = t.retry.base_delay_s *. (2.0 ** float_of_int (k - 1)) in
  let capped = Float.min t.retry.max_delay_s exp in
  let draw = Random.State.float (Domain.DLS.get t.jitter) 1.0 in
  let spread = 1.0 +. (t.retry.jitter *. ((2.0 *. draw) -. 1.0)) in
  Float.max 0.0 (capped *. spread)

(* Every built-in sink operation runs through this: short-circuit when the
   breaker is open, retry transient DB failures with backoff, and feed the
   breaker with the outcome. Policy denials and permanent errors pass
   through untouched — they are verdicts, not service-health signals. *)
let with_resilience t ~sink op =
  let h = health_for t sink in
  refresh t h;
  match Atomic.get h.bstate with
  | Open ->
      Atomic.incr h.short_circuited;
      Error (Breaker_open { sink })
  | Closed | Half_open ->
      (* A deadline expiry raised mid-operation outside the statement
         executor (e.g. from a post-hoc policy check's conjunction walk)
         is a verdict on this request's budget, not a health signal:
         surface it structured, feed the breaker nothing, never retry. *)
      let op () = try op () with Sesame_request.Expired what -> Error (deadline_exceeded ~sink what) in
      let rec attempt k =
        Atomic.incr h.attempts;
        match op () with
        | Ok _ as ok ->
            record_success h;
            ok
        | Error (Db_error { transient = true; _ }) as e ->
            if k < t.retry.max_attempts then begin
              Atomic.incr h.retries;
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
  if Sesame_request.expired_now () then Error (deadline_exceeded ~sink ("sink " ^ sink)) else Ok ()

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
  | Error msg -> denied msg
  | exception Sesame_request.Expired what ->
      (* A check abandoned for budget is not a verdict on the policy:
         surface it as the budget refusal it is, not as a denial. *)
      Error (deadline_exceeded ~sink what)
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
  match Db.Sql.parse sql ~params:(unwrap_params params) with
  | Error msg -> Error (permanent msg)
  | Ok stmt -> (
      let pred =
        match (on, stmt) with
        | Some on, Db.Sql.Select { table; _ } when Enforce.pushdown_enabled () ->
            Option.bind (Hashtbl.find_opt t.translations (table, on)) (fun f -> f context)
        | _ -> None
      in
      match (Db.Database.select_rows_under t.db stmt ~pred, pred, on) with
      | Error e, _, _ -> Error (db_error ~sink e)
      | (Ok _ as selected), Some _, _ ->
          Enforce.note_pushdown ();
          selected
      | (Ok _ as selected), None, None -> selected
      | Ok (schema, rows), None, Some on ->
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

type 'a folded = { rows : int; payload : 'a Pcon.t }

(* The named columns' bindings, staged once per statement. Each call of
   the result starts one payload's policy: [note] records a row's cells'
   policies, collecting the distinct instances by id in first-seen order
   — the member order [Fold.out_list] gives the same cells wrapped one
   by one — and [policy] conjoins them. A cell whose policy is
   physically the previous row's in the same column (an interned policy
   over a run of one entity's rows) skips the distinct-instance table. *)
let stage_policies t schema ~columns =
  let staged = Array.of_list (List.map (stage_column t schema) columns) in
  let width = Array.length staged in
  fun () ->
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let distinct = ref [] in
    (* [NoPolicy] to start: a conjunction drops it anyway. *)
    let previous = Array.make width Policy.no_policy in
    (* A loop, not [Array.iter]: a row allocates no closure. *)
    let note row =
      for j = 0 to width - 1 do
        let policy = staged.(j) row in
        if policy != previous.(j) then begin
          previous.(j) <- policy;
          if not (Hashtbl.mem seen (Policy.id policy)) then begin
            Hashtbl.add seen (Policy.id policy) ();
            distinct := policy :: !distinct
          end
        end
      done
    in
    (note, fun () -> Policy.conjoin_all (List.rev !distinct))

(* One flat float array, filled straight from the rows. *)
let query_fold_floats t ~context ?on sql ~params ~columns =
  let* schema, rows = select t ~context ?on sql ~params in
  let positions = Array.of_list (List.map (Db.Schema.column_index_exn schema) columns) in
  let width = Array.length positions in
  let note, policy = stage_policies t schema ~columns () in
  let n = List.length rows in
  let flat = Array.create_float (width * n) in
  List.iteri
    (fun i row ->
      note row;
      for j = 0 to width - 1 do
        flat.((i * width) + j) <- Db.Value.to_float row.(positions.(j))
      done)
    rows;
  Ok { rows = n; payload = Pcon.Internal.make (policy ()) flat }

module Value_table = Hashtbl.Make (Db.Value)

(* A key cell that is structurally the previous row's finds the same
   keys; NULL and floats always look theirs up. *)
let same_key_cell a b =
  match (a, b) with
  | Db.Value.Text x, Db.Value.Text y -> String.equal x y
  | Db.Value.Int x, Db.Value.Int y -> x = y
  | Db.Value.Bool x, Db.Value.Bool y -> x = y
  | _ -> false

(* The statement's rows split by their [key] cell among [keys], each
   key's rows folded in row order: a row joins every key its cell equals
   under [Db.Value.equal], as the statement's IN list admits it. A row
   in the previous row's group, as one entity's clustered rows are,
   joins it without hashing. Each row pays only its staged policies and
   the copy of its named cells. *)
let fold_groups t schema rows ~columns ~key ~keys =
  let positions = Array.of_list (List.map (Db.Schema.column_index_exn schema) columns) in
  let width = Array.length positions in
  let policies = stage_policies t schema ~columns in
  let column = Db.Schema.column_index_exn schema key in
  let index = Value_table.create (2 * List.length keys) in
  List.iteri (fun i k -> Value_table.add index k i) keys;
  let groups = Array.make (List.length keys) [] in
  let previous = ref (Db.Value.Null, []) in
  List.iter
    (fun row ->
      let cell = row.(column) in
      let members =
        let last, members = !previous in
        if same_key_cell last cell then members
        else begin
          let members = Value_table.find_all index cell in
          previous := (cell, members);
          members
        end
      in
      List.iter (fun i -> groups.(i) <- row :: groups.(i)) members)
    rows;
  let fold group =
    let note, policy = policies () in
    (* A loop, not [Array.map]: a row allocates only its cells' array. *)
    let values =
      List.map
        (fun row ->
          note row;
          let cells = Array.make width Db.Value.Null in
          for j = 0 to width - 1 do
            cells.(j) <- row.(positions.(j))
          done;
          cells)
        group
    in
    { rows = List.length group; payload = Pcon.Internal.make (policy ()) values }
  in
  Array.fold_right (fun group acc -> fold (List.rev group) :: acc) groups []

let query_fold_groups t ~context sql ~columns ~key ~keys =
  let* schema, rows = select t ~context sql ~params:keys in
  Ok (fold_groups t schema rows ~columns ~key ~keys:(unwrap_params keys))

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
  match Db.Sql.parse sql ~params:(unwrap_params params) with
  | Error msg -> Error (permanent msg)
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
      match Db.Database.exec_groups t.db ~members:need_members stmt with
      | Error e -> Error (db_error ~sink e)
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
      Error (permanent "query_agg expects an aggregate SELECT")

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
  | Ok (Db.Database.Rows _) -> Error (permanent "INSERT returned rows")
  | Error e -> Error (db_error ~sink e)

let execute t ~context sql ~params =
  let* () = require_trusted context in
  let sink = "db::execute" in
  let* () = deadline_guard ~sink in
  let* () = check_params context ~sink params in
  with_resilience t ~sink @@ fun () ->
  match Db.Sql.parse sql ~params:(unwrap_params params) with
  | Error msg -> Error (permanent msg)
  | Ok stmt -> (
      match Db.Database.exec_stmt t.db stmt with
      | Ok (Db.Database.Affected n) -> Ok n
      | Ok (Db.Database.Rows _) -> Error (permanent "execute expects UPDATE/DELETE/INSERT")
      | Error e -> Error (db_error ~sink e))

let param _t v = Pcon.wrap_no_policy v
