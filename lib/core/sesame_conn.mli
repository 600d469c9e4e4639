(** The Sesame-enabled database connector (§4 "Sources"/"Sinks", §8).

    Wraps the relational engine so that (i) query results come back as
    {!Pcon_row.t}s whose cells carry the policies attached to their columns
    (the [#[db_policy(table, columns)]] bindings of Fig. 3, instantiated
    per row via the binding's [from_row] function); and (ii) PCon-wrapped
    parameters and inserts are policy-checked against a {e trusted} context
    before the data reaches the database.

    Aggregate queries return cells wrapped under the conjunction of the
    aggregated column's per-row policies, so released aggregates remain
    governed by every contributor's policy until a sink check passes.

    The connector is the single choke point where enforcement meets a
    fallible backend, so every failure path fails {e closed}: policy
    checks that raise deny; transient database errors are retried with
    capped exponential backoff and jitter; persistent failure trips a
    per-sink circuit breaker that short-circuits calls (as
    {!Breaker_open}) until a cooldown passes and a probe succeeds. *)

module Db = Sesame_db

type error =
  | Untrusted_context
      (** built-in sinks accept only Sesame-created contexts (§6) *)
  | Policy_denied of {
      policy : string;
      context : string;
      sink : string;  (** the sink whose check failed, e.g. ["db::query"] *)
      param_index : int option;  (** 0-based position of the denied parameter *)
    }
  | Db_error of { message : string; transient : bool }
      (** [transient] failures were retried and may succeed later;
          permanent ones (SQL errors, schema mismatches) never will *)
  | Breaker_open of { sink : string }
      (** the sink's circuit breaker is open: the call was rejected
          without touching the database *)
  | Deadline_exceeded of { sink : string; message : string }
      (** the request's deadline budget ran out at (or inside) this
          sink; never retried — the refusal is fast by design *)
  | Brownout_write_refused of { sink : string }
      (** the durable store is poisoned and serving read-only from its
          last consistent snapshot; writes refuse until recovery *)

val pp_error : Format.formatter -> error -> unit

val error_response : ?retry_after_s:int -> error -> Sesame_http.Response.t
(** The shared client-facing rendering: every variant maps to a generic
    body ("internal error", "policy check failed", …) so backend error
    strings — SQL messages, quarantine reasons, injected-fault
    descriptions — are never echoed to the requester. Applications
    should route connector errors through this instead of formatting
    their own bodies. Every 503 rendering ({!Breaker_open},
    {!Deadline_exceeded}, {!Brownout_write_refused}) carries a
    [Retry-After] header ([retry_after_s], default 1). *)

val is_transient_db_message : string -> bool
(** The transient/permanent classifier applied to backend error strings
    (matches the ["transient: "] prefix used by injected faults plus
    common timeout/connection markers). *)

type t

val create : Db.Database.t -> t
val database : t -> Db.Database.t
(** Escape hatch for schema setup and test fixtures; reading application
    data through it bypasses Sesame and is the moral equivalent of not
    using the mandated libraries. *)

val create_durable :
  ?config:Sesame_wal.Durable.config ->
  dir:string ->
  unit ->
  (t * Sesame_wal.Durable.t, Sesame_wal.Durable.error) result
(** A connector over a crash-consistent durable store rooted at [dir]
    (WAL + checkpoints; see {!Sesame_wal.Durable}). Every accepted write
    is journaled together with the policy provenance derived from this
    connector's {!attach_policy} bindings — instantiated on the inserted
    row, so row-dependent families record their exact parameters — and
    recovery refuses to load any row whose journaled policy constructors
    are not registered. Registers the built-in families; applications
    must {!Sesame_wal.Provenance.register} their own before calling
    (and before any reopen). Attach bindings before serving traffic so
    provenance is in place from the first write. *)

(** {1 Brownout (degraded read-only serving)}

    When the durable store poisons mid-flight (a journal fault, a quota
    quarantine), a durable connector does not go dark: the first read to
    notice rebuilds the last consistent on-disk state via
    {!Sesame_wal.Durable.read_state} and serves reads from it — under
    full policy enforcement — while marking each such response degraded
    ({!Sesame_request.mark_degraded}); writes refuse with
    {!Brownout_write_refused} until {!exit_brownout} recovers the
    store. In-memory connectors have no snapshot and keep the original
    whole-store fail-closed behavior. *)

val in_brownout : t -> bool
(** Is a brownout snapshot currently serving reads? *)

val brownout_entries : t -> int
(** Times this connector transitioned into brownout (monotone). *)

val exit_brownout : t -> (Sesame_wal.Durable.t, string) result
(** Close the poisoned store, recover a fresh writable one from disk,
    and swap it in; clears the snapshot. On failure (including an
    injected [brownout-exit] fault) the connector {e stays} degraded.
    Returns the new store handle so callers can rebind checkpoint and
    flush plumbing. Errors on connectors without a durable store. *)

(** {1 Resilience} *)

type retry_policy = {
  max_attempts : int;  (** total attempts, including the first *)
  base_delay_s : float;
  max_delay_s : float;  (** backoff cap *)
  jitter : float;  (** ± fraction applied to each delay *)
}

val default_retry : retry_policy
(** 3 attempts, 1 ms base, 50 ms cap, 20% jitter. *)

type breaker_config = {
  failure_threshold : int;
      (** consecutive exhausted (post-retry) transient failures before
          the breaker opens *)
  cooldown_s : float;  (** open → half-open delay *)
}

val default_breaker : breaker_config

type breaker_state = Closed | Open | Half_open

val breaker_state_name : breaker_state -> string

type sink_stats = {
  state : breaker_state;
  consecutive_failures : int;
  opens : int;  (** times the breaker tripped *)
  short_circuited : int;  (** calls rejected while open *)
  retries : int;
  attempts : int;
}

val configure_resilience :
  t ->
  ?retry:retry_policy ->
  ?breaker:breaker_config ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?now:(unit -> float) ->
  unit ->
  unit
(** [seed] reseeds the jitter RNG (the backoff sequence is a pure
    function of the seed); [sleep] and [now] replace the busy-wait sleep
    and {!Sesame_clock} reads so tests run the breaker script on a fake
    clock without waiting. *)

val sink_stats : t -> string -> sink_stats
(** Health of one sink's breaker: ["db::query"], ["db::insert"] or
    ["db::execute"], each made closed with the connector.
    @raise Invalid_argument on any other name. *)

val breaker_state : t -> sink:string -> breaker_state

(** {1 Policy bindings} *)

type policy_source = Db.Schema.t -> Db.Row.t -> Policy.t
(** Instantiates a policy from the row it protects (Fig. 3's
    [from_row]).

    A source is staged: the connector applies it to a statement's
    schema once, when it wraps (or filters, or groups) that statement's
    rows, and applies the result to each row. Do the per-schema work —
    resolving the columns the policy reads to positions — before taking
    the row:
    {[
      fun schema ->
        let email = Db.Schema.column_index_exn schema "email" in
        fun row -> make (Db.Value.to_text row.(email))
    ]}
    The schema half sees the schema of the table the rows came from
    (the snapshot's during brownout) and must not depend on any row. It
    runs for every bound column of the table, read or not, so it should
    raise only when the schema lacks a column the policy needs. *)

val attach_policy :
  ?to_expr:(Context.t -> Db.Expr.t option) ->
  t ->
  table:string ->
  column:string ->
  policy_source ->
  unit
(** Later attachments to the same column replace earlier ones. Columns
    without a binding yield [NoPolicy] cells.

    [to_expr] is the binding's predicate-pushdown translation: for a
    given context it may return a row predicate admitting {e exactly}
    the rows whose bound policy admits that context (or [None] to
    decline). When present, {!query_filtered} can filter denied rows
    while the table reads them (through an index when the predicate
    pins an indexed column to a value or an IN list) instead of
    instantiating per-row policy objects post-hoc. {!query_agg} does
    not consult it: it discharges a group's conjunction only through
    {!certify_binding} and plan certificates. Rebinding
    without [to_expr] drops any previous translation, and always drops
    the {!certify_binding} claim, the one elision fact that speaks
    about a binding. *)

val certify_binding : t -> table:string -> column:string -> families:string list -> unit
(** App-supplied static claim: every policy this binding produces has
    conjunction leaves within [families]. Together with the release
    sinks and certificates {!Enforce.Plan.install} installs, it lets
    {!query_agg} discharge a whole group conjunction without
    instantiating any per-row policy. Dropped on rebinding. *)

(** {1 Sinks} *)

val query :
  t ->
  context:Context.t ->
  string ->
  params:Db.Value.t Pcon.t list ->
  (Pcon_row.t list, error) result
(** A [SELECT *] statement. Each PCon parameter is policy-checked against
    [context] (the read is a sink for the parameter data) before the query
    runs; a denial names the parameter's 0-based index. *)

val query_filtered :
  t ->
  context:Context.t ->
  on:string ->
  string ->
  params:Db.Value.t Pcon.t list ->
  (Pcon_row.t list, error) result
(** {!query} restricted to the rows whose [on]-column policy admits
    [context] — the "fetch everything I may use" shape (e.g. training
    data selection). Reference semantics: run the query, then drop rows
    whose [on] cell policy denies, checking each distinct policy
    instance once per statement. When pushdown is enabled and the
    [on] binding's [to_expr] speaks for this context, the predicate is
    conjoined into the scan instead; both paths return byte-identical
    rows, in scan order, with identical cell policies attached. *)

type folded = {
  rows : int;  (** rows the statement read (after [on]'s filter) *)
  payload : Db.Value.t array list Pcon.t;
      (** each row's cells in the named columns, in row order *)
}

val query_fold :
  t ->
  context:Context.t ->
  ?on:string ->
  string ->
  params:Db.Value.t Pcon.t list ->
  columns:string list ->
  (folded, error) result
(** {!query} (or, with [on], {!query_filtered}) folded straight into one
    container: the region-payload path, for endpoints that read a few
    columns of every row and hand them all to one region. The named
    [columns] are resolved and their bindings staged once per statement;
    each row contributes an array of its cells in those columns, in that
    order, and the values stay raw inside the container, so the region
    that receives it does any conversion. The payload's policy is
    {!Policy.conjoin_distinct} of the distinct policy instances those
    columns' cells carried, over every row read, in first-seen row
    order: the policy [Fold.out_list] gives the same cells wrapped one
    by one through {!Pcon_row}, built without them.

    [rows] is plain data, as the length of {!query}'s list is, so a
    caller tests for emptiness without unwrapping. Raises
    [Invalid_argument] on a column the table lacks, as {!Pcon_row.get}
    does. *)

val query_agg :
  t ->
  context:Context.t ->
  string ->
  params:Db.Value.t Pcon.t list ->
  ((string * Db.Value.t Pcon.t) list list, error) result
(** An aggregate [SELECT]; each output row maps result columns to wrapped
    cells (group-by keys under the conjunction of their column's policies
    over the group, aggregates likewise, both over the rows the same scan
    aggregated). *)

val insert :
  t ->
  context:Context.t ->
  table:string ->
  (string * Db.Value.t Pcon.t) list ->
  (unit, error) result
(** Policy-checks every cell against [context] (sink ["db::insert"]),
    then inserts. *)

val execute :
  t ->
  context:Context.t ->
  string ->
  params:Db.Value.t Pcon.t list ->
  (int, error) result
(** UPDATE / DELETE with PCon parameters; returns the affected-row count. *)

val param : t -> Db.Value.t -> Db.Value.t Pcon.t
(** Wraps a literal the application itself produced (e.g. a constant) as a
    [NoPolicy] parameter. *)
