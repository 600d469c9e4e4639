(** Per-request state: the request's deadline and its degraded mark.

    Each request owns one record, carried in domain-local storage and
    installed by {!serve} when the server takes the request. Domain-local
    storage does not cross domains, so this holds because a request runs
    start to finish on the domain that took it.

    A deadline is an absolute instant on the monotonic clock by which the
    request must have produced an answer. Every blocking layer below the
    HTTP edge (policy conjunctions, DB scans, WAL commit admission,
    sandbox runs) consults the {e ambient} deadline — the current
    record's — and turns "about to miss the budget" into a fast
    structured refusal instead of a hang. The ambient deadline only ever
    tightens: installing a looser deadline inside a tighter scope keeps
    the tighter one. A sandbox run's wall budget is such a tightening
    (see [Sesame_sandbox.Runtime.run]), not a clock of its own.

    The degraded mark records that a layer served the request in a
    degraded mode (e.g. brownout snapshot reads while the durable store
    is poisoned); {!serve} returns it so the server can tell the client. *)

type t
(** An absolute deadline, or "none". Immutable; cheap to copy. *)

val none : t
(** The absent deadline: never expires, imposes no budget. *)

val after_ms : int -> t
(** [after_ms n] is a deadline [n] milliseconds from now ([n <= 0] is an
    already-expired deadline, not [none]). *)

val after_s : float -> t
(** [after_s s] is a deadline [s] seconds from now. *)

val is_none : t -> bool

val current : unit -> t
(** The ambient deadline for this domain ({!none} outside any
    {!with_deadline} or {!serve} scope). *)

val serve : t -> (unit -> 'a) -> 'a * string option
(** [serve d f] runs [f] under a fresh request record whose deadline is
    [d] tightened by the ambient one and whose degraded mark is clear,
    then restores the previous record (on exit, normal or exceptional).
    Returns [f]'s result with the reason {!mark_degraded} last recorded
    during the call, if any. Nothing set inside one [serve] call is
    visible to the next. *)

val mark_degraded : string -> unit
(** Mark the current request as degraded, with a short reason token
    (e.g. ["snapshot"]). Later marks overwrite earlier ones. Outside any
    {!serve} scope the mark lands on the domain's root record, which no
    server reads. *)

val with_deadline : t -> (unit -> 'a) -> 'a
(** [with_deadline d f] runs [f] with the ambient deadline tightened to
    [min d (current ())], restoring the previous ambient deadline on exit
    (normal or exceptional). [with_deadline none f] is [f ()] under the
    unchanged ambient deadline. *)

val unrestricted : (unit -> 'a) -> 'a
(** [unrestricted f] runs [f] with no ambient deadline, restoring the
    previous one on exit. For maintenance work that happens to run on a
    request's domain but must not be aborted by that request's budget:
    WAL replay during recovery, checkpoint publication, brownout
    snapshot builds. Never use it on a request-serving path. *)

val remaining_s : t -> float
(** Seconds until [t] expires; negative once expired; [infinity] for
    {!none}. *)

val remaining_ms : t -> int
(** {!remaining_s} in whole milliseconds, clamped at 0 below. *)

val expired : t -> bool
(** [expired none] is [false]. *)

val expired_now : unit -> bool
(** [expired (current ())]. *)

exception Expired of string
(** Raised by {!check} when the ambient deadline has passed: the one
    signal of a spent budget, from a table scan to a sink. The payload
    names the layer that noticed ("db scan", "policy conjunction", ...).
    A layer that speaks [result] catches it into a typed class of its
    own (the store's [Over_budget], the connector's
    [Deadline_exceeded]), never into a message another layer searches. *)

val check : string -> unit
(** [check what] raises [Expired what] if the ambient deadline has
    passed; otherwise returns unit. Cheap enough to call every few
    hundred rows of a scan. *)

val error_message : string -> string
(** The refusal text for an expired budget at layer [what], for logs and
    structured errors. Nothing parses it. *)
