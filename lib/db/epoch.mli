(** Per-table, per-shard mutation generations.

    Each table owns a generation vector — one counter per hash shard of
    its primary-key space plus a whole-table total. Mutations bump only
    the shards they write; caches upstream record the (table, shard)
    slots a computation actually read (via {!Footprint}) and revalidate
    by comparing just those, so unrelated writes keep them warm.

    Epochs are keyed by table {e name} and deliberately survive
    drop/recreate: resetting a counter could make a stale footprint
    revalidate against a table with different contents. *)

val shard_count : int
(** Fixed power of two; {!shard_of_value} masks into it. *)

type table_epoch

val for_table : string -> table_epoch
(** The (unique, persistent) epoch vector for a table name. *)

val shard_of_value : Value.t -> int
(** Hash partition of a primary-key value into [0 .. shard_count-1]. *)

val shard_gen : table_epoch -> int -> int
val total_gen : table_epoch -> int

val bump_shard : table_epoch -> int -> unit
(** One-key mutation: bumps that shard and the table total. *)

val bump_table : table_epoch -> unit
(** Whole-table mutation: bumps every shard and the total. *)

val bump_structural : string -> unit
(** Schema-level event (create/drop/clear/restore) on the named table:
    {!bump_table} plus a {!structure} bump. *)

val structure : unit -> int
(** Process-wide structural epoch: create/drop/clear/restore only. Row
    mutations never move it. Cached verdicts and plan certificates
    revalidate against it (plus [Enforce.bump]); row traffic is covered
    per slot by footprints. *)
