(** The database: named tables plus a SQL executor.

    A configurable per-statement cost models the round trip to a remote
    database server; the policy-composition experiment (Fig. 9c) depends on
    the fact that each policy check that needs fresh data issues one such
    round trip, so joining policies that share a query amortizes it.

    Writes are serialised by one mutex, the write section: each
    [INSERT], [UPDATE], [DELETE], {!create_table} and {!drop_table}
    applies and runs the journal hook inside it, so writes apply in the
    journal's order. Reads take only their table's lock. A write is
    admitted twice, before its round trip and again inside the section:
    a poisoned store or a spent budget refuses it there, before the
    engine applies anything.

    {2 Brownout}

    A {!poison}ed store takes no write until {!refill}: with a snapshot
    source the refusal is {!Read_only}, without one {!Permanent}. With a
    snapshot source it keeps serving reads: every read statement
    ({!exec} and {!exec_stmt} SELECTs, {!exec_groups} and
    {!select_rows_under}) reads the snapshot, with the snapshot table's
    schema, and marks the request
    ["snapshot"] ({!Sesame_request.mark_degraded}). The first read to
    find no snapshot builds it, behind the [brownout-enter] fault seam;
    one compare-and-set publishes it. A failed build leaves reads
    failing closed. *)

type t

type exec_result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int

(** Why a statement failed, by class. The class is decided where the
    failure arises, never read back from a message. *)
type error =
  | Permanent of string
      (** SQL, schema and constraint errors, a poisoned store that
          serves no snapshot, or a write whose journal append failed
          (memory and log diverged; its frame may be durable) *)
  | Transient of string
      (** an injected fault whose {!Sesame_faults.Injected} is marked
          [transient]: worth retrying *)
  | Over_budget of string
      (** the request's budget ran out ({!Sesame_request.Expired} or a
          spent admission check); names the layer that noticed *)
  | Read_only
      (** the store is poisoned and serves reads from its snapshot: the
          write was refused before anything was applied *)

val error_message : error -> string
(** The message of a class, for callers that only print it. *)

type journal_event =
  | J_stmt of Sql.stmt  (** a mutating statement the engine accepted *)
  | J_create of Schema.t
  | J_drop of string

val create : ?query_cost_ns:int -> unit -> t
(** [query_cost_ns] (default 0) is busy-waited before every statement. *)

val set_journal : t -> (journal_event -> (unit, string) result) option -> unit
(** Installs (or removes) the durable-mode journal hook, before the
    database is shared. The hook runs inside the write section {e after}
    a mutating statement (or [create_table]/[drop_table]) has been
    applied in memory; only accepted operations reach it, so a WAL
    built from these events replays cleanly. If the hook fails (or
    raises), the operation is reported failed — never acknowledged —
    and the store is {!poison}ed, because memory and log have diverged. *)

val exclusive : t -> (unit -> 'a) -> 'a
(** Runs [f] inside the write section. Not re-entrant: [f] must not
    write to [t]. *)

val set_snapshot_source : t -> (unit -> (t, string) result) -> unit
(** Installs, before the database is shared, what builds the read-only
    snapshot a poisoned store serves reads from: the last consistent
    state on disk. Indexed as [t] is when built. *)

val poison : t -> string -> unit
(** Quarantines the store: every subsequent write is refused until
    {!refill} ({!Read_only} with a snapshot source, {!Permanent}
    without); reads fail {!Permanent} too unless a snapshot serves
    them. Idempotent; the first reason wins. *)

val poisoned : t -> string option

val in_brownout : t -> bool
(** Is a published snapshot serving this poisoned store's reads? *)

val refill : t -> from:t -> unit
(** Recovery into the same handle, so every holder of [t] reads the
    recovered tables: [from]'s replace [t]'s, each with the secondary
    indexes [t]'s same-named table had, and [t] is live again. Its query
    cost, counters and hooks stay. Run it inside {!exclusive}, with
    [from] not shared. *)

val set_query_cost_ns : t -> int -> unit
val query_count : t -> int
(** Number of statements executed so far (for tests and benchmarks). *)

val reset_query_count : t -> unit

val create_table : t -> Schema.t -> (unit, string) result

val restore_table : t -> Schema.t -> Row.t list -> (unit, string) result
(** Recovery-only: installs a table rebuilt from a checkpoint snapshot
    (every row re-validated via {!Table.of_rows}), bypassing the journal.
    Fails if the table already exists or any row is rejected. *)

val ensure_index : t -> table:string -> column:string -> (unit, string) result
(** Builds a secondary hash index (see {!Table.ensure_index}) so equality
    predicates on the column probe instead of scanning. Idempotent. *)

val table : t -> string -> Table.t option
val table_exn : t -> string -> Table.t
val table_names : t -> string list
val drop_table : t -> string -> (unit, string) result

val exec : t -> string -> params:Value.t list -> (exec_result, string) result
(** Parses, binds, and runs one statement, as {!exec_stmt} does; the
    error is its {!error_message}. A [SELECT *] returns the table's
    stored rows, shared rather than copied (see {!Table.select}): they
    stay a snapshot, and callers must not write to them. *)

val exec_stmt : t -> Sql.stmt -> (exec_result, error) result
(** An [INSERT] that leaves an [Int] primary key out, or [NULL], gets
    its key from the store ({!Table.insert}); the journal hook sees the
    key bound, first in the column list if the list left it out. *)

val exec_groups :
  t ->
  members:bool ->
  Sql.stmt ->
  (Schema.t * string list * (Value.t array * Row.t list) list, error) result
(** Runs an aggregate [SELECT] as {!exec_stmt} does (one statement) and
    returns the table's schema, the result columns and the result rows,
    each with its group's matching rows in match order when [members]
    (otherwise [[]]), from the same scan. Fails on any other statement. *)

val select_rows_under :
  t -> Sql.stmt -> pred:Expr.t option -> ((Schema.t * Row.t list), error) result
(** Runs a [SELECT *] statement and returns the table schema along with
    the full rows, which the Sesame connector needs to instantiate
    per-row policies. The rows are shared, as {!exec}'s are. [pred] is
    an extra predicate conjoined into the WHERE — the predicate-pushdown
    hook: a policy's row translation filters denied rows {e during} the
    (possibly indexed) scan instead of post-hoc over materialized rows.
    It is validated against the table schema. Fails if the statement is
    not a [SELECT *]. *)
