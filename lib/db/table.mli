(** A mutable table: rows stored in insertion order, with a hash index on
    the primary key (when the schema declares one) and optional secondary
    hash indexes used to serve equality lookups without a scan.

    Thread-safe: mutations and index builds serialize on a per-table
    writer-preferring RW lock; reads run concurrently, and full scans
    copy the slot array under the read lock and evaluate off-lock, so a
    long scan sees a consistent statement-level snapshot instead of
    racing writers. *)

type t

val create : Schema.t -> t
val schema : t -> Schema.t
val length : t -> int

val insert : t -> Row.t -> (int option, string) result
(** Validates the row against the schema and primary-key uniqueness.
    A [Null] [Int] primary key gets one more than the largest key the
    table has held (stored, updated or loaded; deletes do not lower
    it), returned as [Some key]. Other [Null] keys fail validation. *)

val insert_exn : t -> Row.t -> unit

val ensure_index : t -> string -> unit
(** Builds a secondary hash index on the column (idempotent). Kept exact
    across inserts, updates, and deletes; equality predicates and IN
    lists on the column then probe the index instead of scanning. Raises
    [Invalid_argument] on an unknown column. *)

val has_index : t -> string -> bool
(** Whether a secondary index exists for the column. Indexes exist only
    where {!ensure_index} built them. *)

val indexed_columns : t -> string list
(** The columns {!ensure_index} built an index on. *)

val select : ?limit:int -> t -> where:Expr.t -> Row.t list
(** Matching rows in insertion order, at most [limit] when given (the
    scan stops early — no full result is materialized). Routes through
    the primary-key or a secondary index when [where] pins the indexed
    column to a value, or to the values of an IN list (the union of
    their buckets). Raises [Invalid_argument] on unknown columns (use
    {!Expr.validate} to check first).

    The rows are the table's stored rows, shared, not copies. A stored
    row is never written (insert copies, an update installs a fresh
    row), so each stays a snapshot of its row as of the read; callers
    must not write to them. *)

val fold_matching : t -> where:Expr.t -> init:'a -> f:('a -> Row.t -> 'a) -> 'a
(** Folds [f] over the rows {!select} would return, in the same order,
    without building the list; same index routing, deadline
    checkpoints and exceptions. *)

val update :
  t -> where:Expr.t -> set:(string * Value.t) list -> (int, string) result
(** Returns the number of rows updated; rejects updates that would violate
    the schema or duplicate a primary key, in which case no row changes. *)

val delete : t -> where:Expr.t -> int
(** Returns the number of rows removed. *)

val fold : t -> init:'a -> f:('a -> Row.t -> 'a) -> 'a
val to_list : t -> Row.t list

val of_rows : Schema.t -> Row.t list -> (t, string) result
(** Rebuilds a table from a checkpoint snapshot: every row is validated
    and indexed exactly as live inserts are, and the first rejected row
    fails the whole load — a checkpoint that does not replay verbatim is
    corruption, not data. *)

val clear : t -> unit
