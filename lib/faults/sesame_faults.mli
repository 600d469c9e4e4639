(** Deterministic fault injection for the enforcement runtime.

    Every seam the fail-closed invariant depends on — arena allocation,
    sandbox copy-in/out, the guest body, database queries, policy checks,
    template rendering — calls {!hit} with a named {!point}. When the
    injector is disarmed (the default, and the production configuration)
    a hit is a single load-and-branch; when armed, a {!plan} can raise,
    corrupt data, delay, or simulate resource exhaustion on the Nth
    traversal of its point. Given the same seed and plans, a run is
    bit-for-bit reproducible: the matrix test suite relies on this to
    assert that {e every} injected fault surfaces as a structured
    deny/error and never as leaked data or a crashed server. *)

type point =
  | Arena_alloc      (** {!Sesame_sandbox.Arena.alloc} *)
  | Copier_encode    (** sandbox copy-in ({!Sesame_sandbox.Copier.copy_in}) *)
  | Copier_decode    (** sandbox copy-out ({!Sesame_sandbox.Copier.copy_out}) *)
  | Guest_body       (** entry to the guest closure in [Runtime.run] *)
  | Db_query         (** statement execution in [Database] *)
  | Policy_check     (** sink-side policy checks in [Sesame_conn]/[Sesame_web] *)
  | Template_render  (** the HTML render sink in [Sesame_web.render] *)
  | Db_wal_append    (** WAL record append in [Sesame_wal.Wal.append] — a
                         crash/IO-error model for the redo log; a fault
                         here means the write was never acknowledged *)
  | Db_wal_fsync     (** the [fsync] made before acknowledging a frame
                         ([Sesame_wal.Wal]); a fault models a lost disk
                         flush, so the writer must fail the statement *)
  | Db_checkpoint_write
      (** serialization of the checkpoint temp file
          ([Sesame_wal.Checkpoint.write]); a fault aborts the checkpoint,
          leaving the previous checkpoint + WAL authoritative *)
  | Db_checkpoint_rename
      (** the atomic rename that publishes a checkpoint; a fault models a
          crash between temp-file write and publication — recovery must
          ignore the temp file and replay the old checkpoint + WAL *)
  | Preflight_trap_miss
      (** the boot-time SFI preflight's trap-confirmation step
          ([Sesame_sandbox.Sfi]); a fault models a build on which a
          deliberate trap was {e not} caught — the preflight must report
          the check as missed and pool construction must be refused *)
  | Quota_account
      (** cumulative per-region resource accounting
          ([Sesame_sandbox.Quota.account]); a fault means the run's usage
          could not be charged, so the run's result must be denied rather
          than served unaccounted *)
  | Attest_append
      (** attestation-manifest append ([Sesame_signing.Attest]); a fault
          means the run cannot be bound to its approving verdict, so the
          result must be denied *)
  | Attest_fsync
      (** the [fsync] between attestation-frame write and
          acknowledgement; a fault models a manifest the disk never saw *)
  | Db_scan_cancel
      (** the cooperative cancellation checkpoint inside long table scans
          ([Sesame_db.Table]); a fault models a scan whose budget check
          itself misfires — the scan must abandon with a structured
          refusal, never return a partial row set as if complete *)
  | Wal_commit_deadline
      (** the write-admission deadline check before a mutation is applied
          and journaled ([Sesame_db.Database]); a fault refuses the write
          at admission — before any state changed, so nothing is torn and
          the store must not poison *)
  | Brownout_enter
      (** the transition into read-only brownout serving
          ([Sesame_core.Sesame_conn]); a fault models the snapshot
          recovery itself failing — reads must then fail closed exactly
          as before brownout existed *)
  | Brownout_exit
      (** the transition out of brownout back to full service; a fault
          keeps the store degraded (reads from snapshot, writes refused)
          rather than resuming with a half-recovered store *)

val all_points : point list
val point_name : point -> string
(** Stable kebab-case name, e.g. ["db-query"]. *)

val point_of_string : string -> point option

type action =
  | Raise          (** raise {!Injected} at the seam (a crash/bug model) *)
  | Corrupt        (** flip bytes in data crossing the seam; seams that
                       carry no corruptible payload escalate to [Raise] *)
  | Delay of int   (** busy-wait this many nanoseconds (a stall model) *)
  | Exhaust        (** raise {!Injected} marked {e transient} (resource
                       exhaustion / flaky-dependency model) *)

val action_name : action -> string
val action_of_string : string -> action option
(** Accepts ["raise"], ["corrupt"], ["exhaust"], ["delay"] (1 ms) and
    ["delay:<ns>"]. *)

exception Injected of { point : point; action : action; transient : bool }
(** What an armed seam raises. [transient] is true only for [Exhaust]:
    retry machinery may treat those as retryable; everything else is
    permanent and must fail closed immediately. *)

val injected_message : point -> action -> string
(** Canonical rendering. Names the seam and the action only: a fault's
    class travels in {!Injected}'s [transient], never in its text. *)

type plan = { point : point; action : action; nth : int }
(** Fires on the [nth] traversal of [point] (1-based). [nth = 0] fires on
    {e every} traversal. *)

val plan : ?nth:int -> point -> action -> plan
(** [nth] defaults to 1: fire on the first traversal after arming. *)

(** {1 Arming} *)

val arm : ?seed:int -> plan list -> unit
(** Installs the plans, resets all hit counters, and seeds the RNG used
    for corruption (default seed 1742). Replaces any previous arming. *)

val disarm : unit -> unit
(** Back to the production no-op configuration (counters cleared). *)

val armed : unit -> bool

(** {1 Seam API} *)

val hit : ?corruptible:bool -> point -> unit
(** Counts one traversal and applies any due plan: [Raise]/[Exhaust]
    raise {!Injected}, [Delay] busy-waits, [Corrupt] marks the point as
    {!corrupting} when [corruptible] (the seam then mangles its own
    payload) and escalates to [Raise] otherwise. Disarmed: a single
    branch. *)

val corrupting : point -> bool
(** True iff a [Corrupt] plan fired on the latest {!hit} of [point].
    Stable until that point's next hit. *)

val corrupt_string : point -> string -> string
(** When {!corrupting point}, returns a copy with one deterministically
    chosen byte flipped (seeded RNG); otherwise the string unchanged.
    Empty strings pass through. *)

val hits : point -> int
(** Traversals of [point] since the last {!arm}/{!disarm} — lets tests
    assert a seam was actually exercised. *)
