(** Privacy regions (§7): the three API levels of Fig. 4 above the
    built-ins.

    - {!Verified}: statically-verified leakage-free closures. Construction
      runs Scrutinizer over the region's IR model once (the paper's
      compile-time step); a rejected region cannot be constructed, forcing
      the developer to a sandboxed or critical region — the workflow of
      §3. Accepted regions run as-is with no per-invocation overhead.
    - {!Sandboxed}: closures executed under the {!Sesame_sandbox} runtime;
      inputs are copied in, outputs copied out and re-wrapped under the
      conjunction of the input policies.
    - {!Critical}: reviewed, signed closures that may externalize data.
      Running one checks the data's policy against a developer-provided
      context first, and (in release mode) validates the reviewer
      signature against the region's current code hash.

    Every region registers itself in {!Registry} for the developer-effort
    tables. *)

module Scrut = Sesame_scrutinizer
module Sbx = Sesame_sandbox
module Sign = Sesame_signing

type error =
  | Not_leakage_free of Scrut.Analysis.verdict
      (** Scrutinizer rejected the region's IR model *)
  | Policy_denied of { policy : string; context : string }
  | Unsigned of { region : string }
  | Signature_invalid of Sign.Keystore.error
  | Hashing_failed of string
  | Decode_failed of string  (** sandbox output did not decode *)
  | Sandbox_trapped of { region : string; trap : Sbx.Runtime.trap }
      (** the guest trapped or blew a budget; fail closed, arena
          quarantined by the runtime *)
  | Quota_denied of { region : string; state : string }
      (** the region exceeded its cumulative resource quota, or its
          usage could not be accounted; [state] names the breached
          limit, never guest data *)
  | Attest_failed of { region : string }
      (** the run's attestation manifest (or the region's installation
          approval) could not be appended; an unattested run is never
          served *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val error_response : error -> Sesame_http.Response.t
(** The shared client-facing rendering: a policy denial is a 403, a
    quota refusal a retryable 503, and every other variant a 500
    "internal error" — trap renderings, hash/decode messages and
    verdicts never reach a client body. *)

module Verified : sig
  type ('a, 'b) t

  val make :
    app:string ->
    program:Scrut.Program.t ->
    ?allowlist:Scrut.Allowlist.t ->
    spec:Scrut.Spec.t ->
    f:('a -> 'b) ->
    unit ->
    (('a, 'b) t, error) result
  (** Runs Scrutinizer on [spec]; [Error (Not_leakage_free v)] on
      rejection. [f] is the executable closure whose behaviour [spec]
      models (see DESIGN.md on this substitution). *)

  val verdict : _ t -> Scrut.Analysis.verdict
  val name : _ t -> string

  val run : ('a, 'b) t -> 'a Pcon.t -> 'b Pcon.t
  (** Unwraps, applies [f], re-wraps under the same policy. *)

  val run2 : ('a * 'b, 'c) t -> 'a Pcon.t -> 'b Pcon.t -> 'c Pcon.t
  (** Conjunction of both policies on the output. *)

  val run_list : ('a list, 'b) t -> 'a Pcon.t list -> 'b Pcon.t
end

module Sandboxed : sig
  type ('a, 'b) t

  val make :
    app:string ->
    name:string ->
    ?config:Sbx.Runtime.config ->
    ?source:string ->
    ?quota:Sbx.Quota.t ->
    ?verdict:string ->
    loc:int ->
    encode:('a -> Sbx.Value.t) ->
    decode:(Sbx.Value.t -> ('b, string) result) ->
    f:(Sbx.Value.t -> Sbx.Value.t) ->
    unit ->
    ('a, 'b) t
  (** [loc] is the closure's size for Fig. 6 accounting. The default
      config is the module-wide pooled/swizzle/2× one.

      Hardening hooks: [source] is the region body text bound into the
      body hash (default: the [(app, name)] installation site);
      [quota] enrolls the region with a cumulative resource accountant
      — runs past the allowance degrade to {!error.Quota_denied};
      [verdict] (default ["sandboxed:delegated"]) is the verdict
      fingerprint recorded in attestation frames. When an ambient
      {!Sign.Attest} recorder is installed, [make] appends the region's
      approval frame; if that append fails, every later run of this
      region fails closed with {!error.Attest_failed}. *)

  val name : _ t -> string

  val body_hash : _ t -> Sign.Sha256.t
  (** The hash quota books and attestation frames are keyed by. *)

  val quota_counters : _ t -> Sbx.Quota.counters option
  (** This region's cumulative books, if it was enrolled with a quota. *)

  val run : ('a, 'b) t -> 'a Pcon.t -> ('b Pcon.t, error) result
  (** Copies the encoded input into the sandbox, runs [f] on the copy,
      decodes the copied-out result, and wraps it under the input's
      policy. With a [quota], the run is gated on the region's books
      first and its usage charged after; with an ambient attestation
      recorder, the signed run manifest is appended before the result
      (or trap) is surfaced — either failing closed. *)

  val run_list : ('a, 'b) t -> 'a Pcon.t list -> ('b Pcon.t, error) result
  (** Folds the inputs out first ([encode] then sees a ['a] per element via
      {!Sbx.Value.Vec}); requires [encode] to accept each element — use
      when the region consumes a batch. The output policy is the
      conjunction of all input policies. *)

  val last_timings : _ t -> Sbx.Runtime.timings option
  (** Boundary-cost breakdown of the most recent invocation. *)
end

module Critical : sig
  type ('a, 'b) t

  val make :
    app:string ->
    program:Scrut.Program.t ->
    ?allowlist:Scrut.Allowlist.t ->
    spec:Scrut.Spec.t ->
    lockfile:Sign.Lockfile.t ->
    keystore:Sign.Keystore.t ->
    ?quota:Sbx.Quota.t ->
    f:(context:Context.t -> 'a -> 'b) ->
    unit ->
    (('a, 'b) t, error) result
  (** Hashes the region (normalized sources of its call graph + pinned
      dependency versions, §7.3); fails if a reached external dependency is
      not in the lockfile. When [quota] is given, runs are admitted and
      accounted against it, keyed by the region digest — the raw-policy
      path is not exempt from the books. *)

  val name : _ t -> string
  val digest : _ t -> Sign.Sha256.t
  val review_burden_loc : _ t -> int

  val sign : _ t -> reviewer:string -> at:int -> (unit, error) result
  (** Asks the keystore to sign the current digest and attaches the
      signature. *)

  val attach_signature : _ t -> Sign.Signature.t -> unit
  (** For signatures produced out-of-band (e.g. in a review tool). *)

  val signature : _ t -> Sign.Signature.t option

  val validate_signature : _ t -> (unit, error) result
  (** The release-build check: a signature must be attached, must MAC-check
      under a registered, unrevoked reviewer key, and must cover the
      region's {e current} digest. *)

  val quota_counters : _ t -> Sbx.Quota.counters option

  val run : ('a, 'b) t -> context:Context.t -> 'a Pcon.t -> ('b, error) result
  (** Validates the signature (release mode only), admits the run against
      the quota (if any — refusals surface as [Quota_denied]), checks the
      input's policy against [context], then runs [f] on the raw data and
      charges the books (fuel/mem 0 — the body is unsandboxed — wall-clock
      and trap counts are real). The result is {e not} wrapped: critical
      regions may externalize. *)

  val run_each :
    ('a, 'b) t -> context:Context.t -> 'a Pcon.t list -> ('b, error) result list
  (** {!run} over a batch, one result per input in order, with the
      signature validated once (release mode only) for the whole batch;
      an invalid one fails every item with that error, before any is
      admitted. Each item is then admitted, policy-checked, run and
      charged exactly as {!run} does it. A reviewer revoked while a
      batch runs is seen by the next call. *)
end
