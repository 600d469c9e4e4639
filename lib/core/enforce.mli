(** The enforcement front end: {!check_verbose} is a drop-in
    replacement for {!Policy.check_verbose} — same verdicts,
    byte-identical denial messages, same (left-to-right, first-denial)
    ordering — that adds two things.

    - {b Elision.} A check whose every conjunction leaf is covered by an
      installed {!Plan} certificate for the context is discharged
      without running. Each certificate's guard is re-checked on every
      live context.
    - {b Deadlines.} A conjunction's members are checked in member order
      on the calling domain, stopping at the first denial, which is the
      one reported. Once the ambient deadline has expired the walk
      raises {!Sesame_request.Expired}[ "policy conjunction"] before the
      next member, as a table scan does: a spent budget is no verdict,
      so it never reads as a denial. The sinks turn it into their
      budget refusal.

    Every other check runs, every time: no verdict is cached.
    Parallelism comes from concurrent requests, one domain each, never
    from inside one check. *)

val check : Policy.t -> Context.t -> bool
val check_verbose : Policy.t -> Context.t -> (unit, string) result
(** Both raise {!Sesame_request.Expired} when a conjunction's walk
    outlives the ambient deadline. *)

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
    pass ({!Sesame_scrutinizer.Elision}), held as data. An entry
    asserts that every check of [family] at [sink] under [endpoint]
    (exactly, or as a ["/"-separated] path prefix: ["/predict"] covers
    ["/predict/3"]) whose context satisfies one of the entry's clauses
    is identically [Ok]. The clauses are the family model's own,
    checked on each live context, so an entry's truth depends only on
    the family's check function and no binding change makes it stale.
    {!check_verbose} discharges a policy without running it when {e
    every} leaf of its conjunction tree is certified for the context. *)
module Plan : sig
  val install :
    families:Sesame_scrutinizer.Elision.family list ->
    sites:Sesame_scrutinizer.Elision.site list ->
    Sesame_scrutinizer.Elision.certificate list ->
    unit
  (** Add an entry per Redundant certificate, guarded by its proven
      clause ([Context_satisfies]) or its family's clauses
      ([Field_disjoint]); one with no clause is skipped. Entries are
      added by structural union, so installing a model twice adds
      nothing. Each site's [sinks] replace its endpoint's release
      sinks. *)

  val clear : unit -> unit
  val size : unit -> int
  val active : unit -> bool

  val covers : Policy.t -> Context.t -> bool
  (** Is every leaf family of the policy certified for this context?
      [false] when the context has no sink. *)

  val certified_leaf : sink:string -> family:string -> Context.t -> bool

  val endpoint_sinks : Context.t -> string list option
  (** The release sinks of the site covering this context's endpoint,
      if any: every value the endpoint releases is checked under one of
      them with the request context. Lets data-wrapping sites (the
      connector's [query_agg]) consult certificates for checks that only
      run later, at release time. *)
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
