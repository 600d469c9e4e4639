(** The sandboxed-region runtime.

    Runs a closure with RLBox-style isolation semantics: inputs are copied
    into the sandbox arena and the closure sees only the copy; the result
    is copied back out; syscalls (and printing — Sesame's RLBox
    modification, §7.2) are forbidden while a sandbox is active; and the
    guest runs at a configurable slowdown modelling WASM's ≈2× code-quality
    penalty (§10.3). Two lifecycle modes reproduce Fig. 9a: [Naive]
    creates and destroys an arena per invocation; [Pooled] acquires from a
    pool and wipes on release.

    Fail-closed fault containment: {!run} never raises. A guest exception,
    SFI violation, forbidden syscall, injected fault, or budget overrun
    (wall-clock deadline, fuel, arena high-water mark) surfaces as a
    structured {!trap}, and the arena that hosted it is quarantined —
    poisoned and dropped from the pool, never reused.

    The wall-clock budget is not a second clock: a run tightens the
    ambient request deadline ({!Sesame_request.with_deadline}) to its
    budget for the guest's extent and restores it afterwards, so a run
    can never outlive its request and a nested run can never extend the
    run around it. Nesting depth and fuel are per-domain state, kept
    outside any request so {!guard_syscall} holds wherever a sandbox
    runs. *)

exception Forbidden_syscall of string

type mode = Naive | Pooled of Pool.t

(** Resource budgets enforced on the guest. All default to unlimited. *)
type budget = {
  deadline_s : float option;
      (** wall-clock limit on guest execution, capped by the ambient
          request deadline *)
  fuel : int option;  (** max {!tick} calls (the WASM fuel/step limit) *)
  mem_bytes : int option;  (** cap on the arena high-water mark *)
}

val no_budget : budget
val budget : ?deadline_s:float -> ?fuel:int -> ?mem_bytes:int -> unit -> budget

type config = {
  mode : mode;
  strategy : Copier.strategy;
  slowdown : float;  (** ≥ 1.0; 2.0 matches the paper's WASM observation *)
  arena_size : int;  (** for [Naive] mode *)
  budget : budget;
}

val default_config : config
(** Pooled (a fresh shared pool), Swizzle, slowdown 2.0, 4 MiB arenas,
    no budget. *)

val config :
  ?mode:mode ->
  ?strategy:Copier.strategy ->
  ?slowdown:float ->
  ?arena_size:int ->
  ?budget:budget ->
  unit ->
  config

type timings = {
  setup_s : float;
  copy_in_s : float;
  exec_s : float;  (** includes the simulated guest slowdown *)
  copy_out_s : float;
  teardown_s : float;
}

val total_s : timings -> float

(** Why a guest was terminated. Messages carry no guest data beyond the
    exception rendering in [Guest_exception]; they belong in structured
    errors and logs, never verbatim in client responses. *)
type trap =
  | Guest_exception of string  (** the guest closure raised *)
  | Syscall_blocked of string  (** {!guard_syscall} fired inside the guest *)
  | Sandbox_fault of string  (** SFI bounds/exhaustion/corrupt-object trap *)
  | Fault_injected of string  (** a {!Sesame_faults} plan fired at a sandbox seam *)
  | Deadline_exceeded of { limit_s : float }  (** [limit_s]: the run's effective wall budget *)
  | Fuel_exhausted of { limit : int }
  | Memory_exceeded of { used_bytes : int; limit_bytes : int }

val trap_message : trap -> string
val pp_trap : Format.formatter -> trap -> unit

type status = Ok of Value.t | Trapped of trap

type usage = {
  fuel_used : int;  (** {!tick} calls the run consumed (nested runs included) *)
  mem_bytes : int;  (** arena high-water mark at completion *)
}
(** What the run actually consumed, sampled before the arena is wiped or
    quarantined — the input to cumulative per-region quotas ({!Quota}). *)

type outcome = { status : status; timings : timings; usage : usage }

val run : config -> input:Value.t -> f:(Value.t -> Value.t) -> outcome
(** Executes [f] on the copied-in input. Never raises: any guest failure
    or budget overrun yields [Trapped] and, in pooled mode, quarantines
    the arena ({!Pool.quarantine}); a successful run releases (wipes) it.
    Exactly one of the two happens, exactly once. *)

val tick : unit -> unit
(** Guest progress callback — the moral equivalent of WASM fuel
    interruption points. Guest closures should call it on loop
    back-edges; it burns one unit of fuel and checks the ambient
    deadline, raising internal trap exceptions that {!run} converts to
    [Trapped]. Outside a sandbox it is a no-op. *)

val in_sandbox : unit -> bool
(** True while any sandbox invocation is active on this domain. Each
    domain has its own state (backed by [Domain.DLS]), so sandboxes on
    concurrent domains do not interfere. *)

val guard_syscall : string -> unit
(** Called by Sesame's I/O layers: raises {!Forbidden_syscall} when
    invoked from inside a sandbox on this domain. *)
