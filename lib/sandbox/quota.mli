(** Cumulative per-region resource quotas.

    The per-run budgets in {!Runtime.budget} bound one invocation; they
    cannot stop a region that traps, burns fuel, or hogs wall-clock a
    little under the limit on {e every} invocation from starving the
    rest of the application. This layer keeps cumulative books — runs,
    traps, total fuel, total wall-clock, peak arena memory — keyed by
    region-body hash. Once a region's books reach any ceiling, every
    further run of it is refused with a structured denial; other
    regions' books are untouched.

    All counters are exact under concurrency (one mutex over the table);
    the accounting seam ([quota-account]) fires {e before} any counter
    moves, so an injected accounting fault leaves the books untouched
    and the caller must deny the response. *)

type limits = {
  max_runs : int option;  (** admissible runs; the (n+1)th breaches *)
  max_traps : int option;
  max_fuel : int option;  (** cumulative {!Runtime.tick} calls *)
  max_wall_s : float option;  (** cumulative guest wall-clock *)
  max_mem_bytes : int option;  (** peak arena high-water mark *)
}

val no_limits : limits

val limits :
  ?max_runs:int ->
  ?max_traps:int ->
  ?max_fuel:int ->
  ?max_wall_s:float ->
  ?max_mem_bytes:int ->
  unit ->
  limits

type counters = {
  runs : int;
  traps : int;
  fuel : int;
  wall_s : float;
  peak_mem_bytes : int;
  denied : int;  (** admissions refused *)
}

type t

val create : ?limits:limits -> unit -> t
(** Default {!no_limits}: everything admits. *)

type admission = Admit | Deny_quota of { breached : string }

val admission_message : admission -> string
(** Structured rendering — names the breached limit, never region data. *)

val admit : t -> key:string -> admission
(** Gate a run on the region's cumulative books. Refusals also count
    (into [denied]) so starvation shows up in stats. *)

val account : t -> key:string -> trapped:bool -> fuel:int -> wall_s:float -> mem_bytes:int -> unit
(** Charge one completed run. Hits the [quota-account] fault seam before
    touching any counter; on an injected fault it raises
    {!Sesame_faults.Injected} with the books unchanged — the caller must
    fail the run closed. *)

val counters_for : t -> key:string -> counters option

val snapshot : t -> (string * counters) list
(** All regions' books, sorted by key. *)

val totals : t -> counters
(** Aggregate across regions ([peak_mem_bytes] is the max, the rest sum). *)

val describe_counters : counters -> string

val state_string : t -> key:string -> string
(** Compact books-at-a-glance string bound into attestation manifests. *)
