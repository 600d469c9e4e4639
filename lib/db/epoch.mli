(** The structural epoch: a process-wide counter of schema-level events
    (create/drop/clear/restore). Row mutations never move it.
    Enforcement plan certificates revalidate against it (plus
    [Enforce.bump]): a certificate's claim is about bindings and
    schemas, which rows cannot change. *)

val bump_structural : unit -> unit
(** Record one schema-level event. *)

val structure : unit -> int
