(** Per-request deadline budgets.

    A deadline is an absolute instant on the monotonic clock by which the
    current request must have produced an answer. The server stamps one at
    the HTTP edge; every blocking layer below (policy conjunctions, DB
    scans, WAL commit admission, sandbox runs) consults the *ambient*
    deadline — carried in domain-local storage — and turns "about to miss
    the budget" into a fast structured refusal instead of a hang.
    Domain-local storage does not cross domains, so this holds because a
    request runs start to finish on the domain that took it.

    The ambient deadline only ever tightens: installing a looser deadline
    inside a tighter scope keeps the tighter one. *)

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
    {!with_deadline} scope). *)

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
(** Raised by {!check} when the ambient deadline has passed. The payload
    names the layer that noticed ("db scan", "wal commit", ...). Layers
    that speak [result] catch this and surface {!error_message}. *)

val check : string -> unit
(** [check what] raises [Expired what] if the ambient deadline has
    passed; otherwise returns unit. Cheap enough to call every few
    hundred rows of a scan. *)

val guard : string -> (unit, string) result
(** [guard what] is [Error (error_message what)] if the ambient deadline
    has passed, [Ok ()] otherwise. *)

val error_message : string -> string
(** The structured refusal message for an expired budget at layer
    [what]. Always begins with {!marker}. *)

val marker : string
(** The prefix ["deadline exceeded"] that identifies a deadline refusal
    in an [Error] message, wherever it crossed a [result] boundary. *)

val is_deadline_error : string -> bool
(** Does this error message carry {!marker}? *)
