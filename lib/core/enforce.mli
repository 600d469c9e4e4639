(** The enforcement hot path: memoized policy checking.

    {!check_verbose} is a drop-in replacement for
    {!Policy.check_verbose} — same verdicts, byte-identical denial
    messages, same (left-to-right, first-denial) ordering — that caches
    leaf and conjunction verdicts per domain, keyed by (policy instance
    id, full structural context). The id is unique per instance and
    policies are immutable, so an id names one policy forever; the
    context key is the whole {!Context.t} compared structurally (its
    hash is only a fingerprint — equality decides, so hash collisions
    cost a probe, never a wrong verdict).

    What a cached verdict can depend on beyond (policy, context) is
    database state read by the policy's own check. Every check records
    the read footprint its computation touched — the set of (table,
    shard) generation slots, collected by {!Sesame_db.Footprint}
    through the table layer — and the cached verdict revalidates by
    comparing exactly those slots, plus {!bump}s and the structural
    schema epoch ({!Validity}). Row mutations land in recorded slots,
    schema events in the structural epoch, re-binding in {!bump}, so
    every change a verdict depends on retires it. A write to [users]
    shard 3 retires only verdicts that read it; verdicts over other
    tables, other shards, and pure (DB-free) policies stay warm.

    A conjunction's members are checked in member order on the calling
    domain, stopping at the first denial, which is the one reported.
    The walk stops early, with a {!Sesame_deadline.error_message}
    refusal, once the ambient deadline has expired; a refusal is never
    cached. Parallelism comes from concurrent requests, one domain
    each, never from inside one check. *)

val check : Policy.t -> Context.t -> bool
val check_verbose : Policy.t -> Context.t -> (unit, string) result

val bump : unit -> unit
(** Invalidate every cached verdict, certificate and validity token (all
    domains observe it on their next lookup: it moves every entry's
    base). Called on policy binding; also the test hook for "the world
    changed in a way the DB layer cannot see". *)

val set_memoization : bool -> unit
(** Default on. Off = every check recomputes (the reference path). *)

val memoization : unit -> bool

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

    Certificate validity ⊆ footprint validity: an entry validated under
    the current base (binding {!bump}s + structural schema events; row
    traffic does not move it) is trusted until that base moves; after a
    re-binding or schema event its [revalidate] closure must re-approve
    it, and an entry that fails revalidation is dropped so the residual
    runtime check runs. *)
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

type stats = {
  hits : int;
  misses : int;
  elisions : int;  (** checks discharged by plan certificates *)
  pushdowns : int;  (** scans filtered by a translated predicate *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** Validity capture, shared by the verdict cache and caches outside
    this module (the connector's per-group aggregate cache): run a
    computation and obtain a token answering "may its result still be
    reused?" — its read footprint plus the base ({!bump}s + structural
    schema epoch) it ran under. *)
module Validity : sig
  type t

  val capture : (unit -> 'a) -> 'a * t
  (** Runs the computation under a recording scope and returns its
      result plus the validity token. *)

  val valid : t -> bool
  (** May a value captured with this token still be reused? *)

  val merge_ambient : t -> unit
  (** On reuse: fold the token's recorded reads into the caller's open
      recording scope, so an enclosing capture inherits them. No-op
      with no scope open. *)
end
