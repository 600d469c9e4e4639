(** The durable policy store: a {!Sesame_db.Database} whose every
    accepted mutation is journaled — values {e and} policy provenance —
    and which recovers from checkpoint + WAL with fail-closed semantics.

    {2 Write path}

    {!open_store} installs a journal hook on the database: after the
    engine accepts an [INSERT]/[UPDATE]/[DELETE] (or a table
    create/drop), one record is appended to the WAL carrying the LSN,
    the statement, the table's schema hash, and — per bound column — the
    flattened policy provenance the [provenance] callback reports.
    Each record is written, and under {!Fsync} [fsync]ed, before the
    statement is acknowledged. If the append (or its fsync) fails, the statement is never acknowledged and
    the in-memory store is poisoned (see {!Sesame_db.Database.poison}):
    memory and log have diverged, and only a reopen through recovery may
    serve data again.

    This module takes no lock: it relies on the database's write
    section, which the hook runs in and {!checkpoint} and {!close}
    enter, to keep LSNs in apply order and snapshots off running writes.

    Checkpoints (periodic via [checkpoint_every], or manual via
    {!checkpoint}) snapshot the full store atomically and reset the WAL.
    A checkpoint failure is {e recoverable} — it is recorded but the old
    checkpoint + WAL stay authoritative, and traffic continues.

    {2 Recovery}

    Reopening a directory replays the checkpoint, then every WAL record
    with [lsn >] the checkpoint's. A torn {e final} record (any prefix
    of a frame, the residue of a crash mid-write) is truncated away —
    per fsync mode it was never an acknowledged durable write. Anything
    else fails closed with {!Recovery_failed} and quarantines the
    directory (a [QUARANTINE] marker makes subsequent opens refuse until
    an operator intervenes): a mid-log checksum mismatch, a frame that
    passes CRC but does not decode, a policy constructor not registered
    in {!Provenance}, a schema hash that drifted, or a replayed
    statement the engine rejects. A row is never loaded without its
    exact original policy.

    {2 Brownout}

    {!open_store} also gives the database its snapshot source: the
    last consistent state on disk (checkpoint + every intact WAL
    record), read without touching the directory, so a poisoned store
    keeps serving reads (see {!Sesame_db.Database}). {!reopen} recovers the directory into the
    same handles: every holder of {!db} reads the recovered tables. *)

type sync_mode =
  | No_sync  (** write-behind: OS page cache only; a crash may lose the tail *)
  | Fsync    (** [fsync] every record before acknowledging *)

type config = {
  sync : sync_mode;
  checkpoint_every : int option;
      (** checkpoint after this many journaled records; [None] = manual only *)
}

val default_config : config
(** [{ sync = Fsync; checkpoint_every = Some 256 }] — the strict mode:
    every acknowledged write survives any crash. *)

type reason =
  | Quarantined of string
      (** the directory carries a [QUARANTINE] marker from an earlier
          failed recovery *)
  | Corrupt_checkpoint of string
  | Corrupt_record of { offset : int; detail : string }
      (** mid-log checksum mismatch, or a CRC-valid frame that does not
          decode *)
  | Unknown_policy of { lsn : int64; table : string; ctor : string }
      (** journaled provenance names a constructor the application never
          registered — the row's policy cannot be reconstructed *)
  | Schema_drift of { lsn : int64; table : string; expected : int32; found : int32 }
  | Replay_failed of { lsn : int64; detail : string }
      (** a journaled (hence once-accepted) statement no longer replays *)

type error = Recovery_failed of { dir : string; reason : reason }

val reason_message : reason -> string
val error_message : error -> string

type t

type provenance_fn =
  schema:Sesame_db.Schema.t -> column:string -> row:Sesame_db.Row.t option -> Provenance.leaf list
(** Reports the flattened policy conjuncts governing [column] of the
    table [schema] describes at journal time. [row] is the full inserted
    row when the statement binds one (an [INSERT]), letting
    row-dependent policy families render their exact parameters;
    [UPDATE]/[DELETE] journal family names without a row. Register
    every family name with {!Provenance.register} before opening. *)

val open_store :
  ?config:config -> provenance:provenance_fn -> dir:string -> unit -> (t, error) result

val db : t -> Sesame_db.Database.t
val dir : t -> string

(** Counters since the store opened; they run on across checkpoints,
    which each reopen the log. *)
type commit_stats = {
  appended : int;  (** frames journaled *)
  flushes : int;  (** frame writes completed; equals [appended] unless a write failed *)
  fsyncs : int;  (** 0 under {!No_sync} *)
}

val commit_stats : t -> commit_stats

val checkpoint : t -> (unit, string) result
(** Snapshot now and reset the WAL. Failure is recoverable (the store
    keeps serving; see {!last_checkpoint_error}). *)

val close : t -> (unit, string) result
(** Close the log. The journal hook stays installed, so any
    later mutation fails (and poisons) rather than silently running
    un-journaled. *)

val reopen : t -> (unit, string) result
(** Recover the directory into the same handles, in the database's
    write section: the log is closed, checkpoint + WAL are recovered as
    {!open_store} recovers them, and the recovered tables replace the
    database's ({!Sesame_db.Database.refill}: declared secondary
    indexes rebuilt, query cost kept, poison and snapshot cleared), with
    a new writer. [t] and {!db} stay the same objects. An injected
    [brownout-exit] fault fails it before anything changes, so a
    degraded store stays degraded; a recovery that fails closed leaves
    the store poisoned. *)

val clear_quarantine : dir:string -> unit
(** Operator override: removes the [QUARANTINE] marker so the next
    {!open_store} re-attempts recovery. *)

(** {1 Introspection (tests, benchmarks)} *)

val next_lsn : t -> int64
val checkpoint_lsn : t -> int64
val replayed : t -> int
(** WAL records replayed by the recovery that produced this handle. *)

val last_checkpoint_error : t -> string option
