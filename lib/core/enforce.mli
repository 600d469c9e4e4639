(** The enforcement front end: {!check_verbose} is a drop-in
    replacement for {!Policy.check_verbose} — same verdicts,
    byte-identical denial messages, same (left-to-right, first-denial)
    ordering — that adds two things.

    - {b Elision.} A check whose every conjunction leaf is covered by an
      installed {!Plan} certificate for the context is discharged
      without running. Each certificate revalidates at every use.
    - {b Deadlines.} A conjunction's members are checked in member order
      on the calling domain, stopping at the first denial, which is the
      one reported. The walk stops early, with a
      {!Sesame_request.error_message} refusal, once the ambient
      deadline has expired.

    Every other check runs, every time: no verdict is cached.
    Parallelism comes from concurrent requests, one domain each, never
    from inside one check. *)

val check : Policy.t -> Context.t -> bool
val check_verbose : Policy.t -> Context.t -> (unit, string) result

val set_elision : bool -> unit
(** Default on. Off = certified checks run anyway (the ablation
    reference). With no plan installed this flag is a no-op. *)

val elision : unit -> bool

val set_pushdown : bool -> unit
(** Default on. Off = binding translations are ignored and every
    consumer falls back to post-hoc per-row checks. *)

val pushdown_enabled : unit -> bool

val note_pushdown : unit -> unit
(** Record one scan-predicate pushdown in {!stats} (called by the
    connector when a translated predicate replaces post-hoc checks). *)

val note_elision : unit -> unit
(** Record one certificate-discharged check in {!stats} (called by the
    connector when a plan certificate replaces a group conjunction). *)

(** The enforcement plan: elision certificates compiled from the static
    pass ({!Sesame_scrutinizer.Elision}). An installed entry asserts
    that every check of [family] at [sink] (under [endpoint], when
    given) whose context satisfies [guard] is identically [Ok].
    {!check_verbose} discharges a policy without running it when {e
    every} leaf of its conjunction tree is certified for the context.

    Every consultation of an entry first runs its [revalidate] closure
    (typically one read of a {!Sesame_conn.binding_version}; keep it
    that cheap). An entry that fails revalidation is dropped, so the
    residual runtime check runs. *)
module Plan : sig
  type entry

  val entry :
    ?endpoint:string ->
    sink:string ->
    family:string ->
    guard:(Context.t -> bool) ->
    revalidate:(unit -> bool) ->
    witness:string ->
    unit ->
    entry
  (** [endpoint] matches exactly or as a ["/"-separated] path prefix
      (so ["/predict"] covers ["/predict/3"]); omitted = any endpoint.
      [witness] is the rendered static proof, kept for introspection. *)

  val install : entry -> unit
  val clear : unit -> unit
  val size : unit -> int
  val active : unit -> bool

  val covers : Policy.t -> Context.t -> bool
  (** Is every leaf family of the policy certified for this context?
      [false] when the context has no sink. *)

  val certified_leaf : sink:string -> family:string -> Context.t -> bool

  val declare_endpoint_sinks : endpoint:string -> string list -> unit
  (** Declare the release sinks of an endpoint: every value the endpoint
      releases is checked under one of these sinks with the request
      context. Lets data-wrapping sites (the connector's [query_agg])
      consult certificates for checks that only run later, at release
      time. Re-declaring an endpoint replaces its sink list; {!clear}
      forgets all declarations. *)

  val endpoint_sinks : Context.t -> string list option
  (** The declared release sinks covering this context's endpoint
      (exact or path-prefix match), if any. *)

  val guard_of_atoms : Sesame_scrutinizer.Elision.atom list -> Context.t -> bool
  (** Compile a satisfying clause from the static pass into a runtime
      guard that re-checks each atom against the concrete context. *)
end

(** [hits] and [misses] keep the shape of the deleted verdict cache's
    counters, which perfbench reads; both stay until its next change.
    [hits] is always 0. [misses] counts every check that runs — a
    conjunction and each of its members count once each — and excludes
    elided checks. *)
type stats = {
  hits : int;
  misses : int;
  elisions : int;  (** checks discharged by plan certificates *)
  pushdowns : int;  (** scans filtered by a translated predicate *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
