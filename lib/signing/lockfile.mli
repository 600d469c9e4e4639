(** Dependency lockfile model (the Cargo.lock analogue).

    A lockfile pins every package of the application to an exact version
    and records each package's direct dependencies. Critical-region hashing
    "traverses the Cargo.lock file to find the exact versions of these
    dependencies and any transitive dependencies" (§7.3); {!closure}
    implements that traversal. *)

type package = {
  name : string;
  version : string;
  deps : string list;  (** names of direct dependencies *)
}

type t

val empty : t

val add : t -> package -> t
(** Adds or replaces a package entry (keyed by name). *)

val of_packages : package list -> t

val find : t -> string -> package option

val packages : t -> package list
(** All entries, sorted by name. *)

val closure : t -> string list -> ((string * string) list, string) result
(** [closure t roots] is the transitive dependency closure of [roots] as
    [(name, version)] pairs sorted by name, or [Error missing] naming the
    first package that the lockfile does not pin. Root packages themselves
    are included in the closure. Dependency cycles are tolerated (each
    package is visited once). *)

val parse : string -> (t, string) result
(** Parses the textual format written by {!render}: one [name version dep1
    dep2 ...] line per package; [#] starts a comment. *)

val render : t -> string

val equal : t -> t -> bool

(** Advisory filesystem locks with stale-lock recovery.

    Guards mutable signing artifacts (the attestation log) against
    concurrent writers from other processes. Acquisition is an atomic
    [O_CREAT|O_EXCL] create recording [pid start-time]; a lock left
    behind by a SIGKILL'd process is detected — owner pid dead
    ([ESRCH]), owner record unreadable, or the lock older than
    [stale_after_s] — and {e broken} with a logged warning instead of
    wedging every later writer forever. *)
module File_lock : sig
  type held

  type error =
    | Held of { pid : int; age_s : float }
        (** a live process holds the lock; [pid = -1] if unreadable *)
    | Io of string

  val error_message : error -> string

  val pid_alive : int -> bool
  (** Liveness probe via [kill pid 0]. [EPERM] counts as alive; only
      [ESRCH] proves death (never break a lock we can't reason about). *)

  val default_warn : string -> unit
  (** Writes one ["sesame: "]-prefixed line to stderr. *)

  val acquire : ?stale_after_s:float -> ?warn:(string -> unit) -> string -> (held, error) result
  (** [acquire path] takes the lock at [path]. [stale_after_s] defaults
      to 600; [warn] (default: {!default_warn}) receives one line per broken
      stale lock. Bounded retries, so two waiters racing to break the
      same stale lock resolve deterministically. *)

  val release : held -> unit
  (** Idempotent. *)

  val with_lock :
    ?stale_after_s:float -> ?warn:(string -> unit) -> string -> (unit -> 'a) -> ('a, error) result
end
