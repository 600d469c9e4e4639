(** Boot-time SFI preflight: trap tests, fail closed.

    Before a pool serves regions, this battery provokes one deliberate
    violation per isolation invariant — out-of-bounds arena access (read
    and write), heap exhaustion, fuel exhaustion, deadline overrun,
    memory high-water breach, a blocked-syscall stub, wipe hygiene, and
    quarantine-with-replacement — each on its own scratch capacity-1
    pool, and confirms the trap was caught and the hosting arena
    quarantined. The posture is a container launcher's: if the host
    can't prove seccomp binds, nothing launches.

    Determinism hook: the [preflight-trap-miss] fault seam fires once
    per check at trap confirmation, so tests can force any single check
    (via [nth]) or every check to read as missed and assert the
    fail-closed refusal. *)

val run : ?arena_size:int -> unit -> Preflight.report
(** Runs the battery (default 64 KiB probe arenas) and reports. Never
    raises and never hangs: each check is bounded by an internal wall
    clock, and a check that crashes reads as [Missed]. *)

val create_pool :
  ?capacity:int ->
  ?max_capacity:int ->
  ?arena_size:int ->
  unit ->
  (Pool.t * Preflight.report, Preflight.report) result
(** Preflight-gated {!Pool.create}: runs the battery first and refuses
    to construct the pool — [Error report] — unless every check caught
    its trap. On success the report is attached to the pool
    ({!Pool.preflight_report}). *)
