(** Read-footprint recording for precise cache invalidation.

    A cache (Enforce's verdict memo, Sesame_conn's aggregate cache)
    opens a {!scope} around a computation; every {!Table}/{!Database}
    read inside records the (table, shard) generation slot it depended
    on, sampled {e before} the rows are read. The resulting
    {!snapshot} is stored with the cached value and {!valid} rechecks
    only those slots — a write elsewhere leaves the entry warm.

    Conservative by construction: pk-equality probes record one shard;
    every other read shape (secondary probe, full scan, fold, absence
    of a table) records a whole-table dependency; duplicate records
    keep the oldest generation; a read that races a write samples a
    generation the write then moves, so the entry fails validation.
    Scopes nest, merging child deps into the parent on exit.
    Per-domain (DLS); recording off costs one DLS read per record
    site. *)

type snapshot

val recording : unit -> bool
(** Is a scope open on this domain? *)

val record_shard : string -> Epoch.table_epoch -> int -> unit
(** [record_shard table ep shard] — a pk-equality probe touched exactly
    this shard (hit or miss: key absence is shard-local too). *)

val record_table : string -> Epoch.table_epoch -> unit
(** Whole-table dependency: scans, secondary-index probes, folds. *)

val record_table_name : string -> unit
(** Whole-table dependency by name — also for tables that do not exist
    (the verdict depends on their absence; creation bumps the slot). *)

val scope : (unit -> 'a) -> 'a * snapshot
(** Run with a fresh recording scope; returns the result and the deps
    recorded. On exit the deps also merge into the enclosing scope, if
    any. Exceptions pop the scope and re-raise (deps discarded). *)

val merge_ambient : snapshot -> unit
(** Record a stored snapshot's deps into the current scope (cache-hit
    path: the reused verdict's reads become the caller's reads). No-op
    when no scope is open. *)

val valid : snapshot -> bool
(** Do all recorded slots still hold their recorded generations? *)

val cardinal : snapshot -> int

val deps : snapshot -> (string * int) list
(** Sorted (table, shard) pairs; shard [-1] is a whole-table dep. For
    tests and diagnostics. *)
