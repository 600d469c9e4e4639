(** Policies (§4.1).

    A policy is an arbitrary predicate over a {!Context.t}, carrying its
    own metadata (the paper's policy-struct fields), an optional same-type
    [join], and a [NoFolding] flag (§5). Policies are defined as
    {e families} via the {!Make} functor — the OCaml rendering of
    "developers express each policy type as a Rust struct and implement
    the Policy trait".

    Conjunction (§4.1 "Policy Conjunction"): {!conjoin} first tries the
    family [join] when both sides belong to the same family; otherwise it
    {e stacks} the two policies into an [And], whose check checks both.
    Joining and stacking must be semantically equivalent; joining just
    yields more compact policies that are faster to check (Fig. 9c). *)

type state = ..
(** Extensible carrier for per-family metadata. *)

type t

val name : t -> string
(** The family name ([.no-policy], [.and] for the built-ins). *)

val check : t -> Context.t -> bool
(** Evaluates the policy. Every {e leaf} check is counted (see
    {!check_count}); an [And] counts each conjunct. *)

val check_verbose : t -> Context.t -> (unit, string) result
(** Like {!check} but names the denying policy. *)

val no_folding : t -> bool
(** True if any constituent forbids folding in (§5 "Fold"). *)

val describe : t -> string

val no_policy : t
(** The explicit marker for intentionally insensitive data. Identity for
    {!conjoin}. Always allows. *)

val is_no_policy : t -> bool

val deny_all : reason:string -> t
(** Always denies — useful for tests and for quarantined data. *)

val conjoin : t -> t -> t
(** Join when possible, stack otherwise. Stacking flattens nested [And]s. *)

val conjoin_all : t list -> t
(** [no_policy] for the empty list. *)

val conjoin_distinct : t list -> t
(** {!conjoin_all} after dropping repeated instances (by {!id}): the bulk
    path for N rows sharing memoized policy objects, where it pays one
    leaf walk per distinct policy instead of one per row. Semantically
    identical to {!conjoin_all} ([P AND P = P]). *)

val conjuncts : t -> t list
(** The flattened leaves of an [And] (a singleton for leaf policies). *)

val members : t -> t list option
(** [Some ms] iff the policy is a conjunction with members [ms] (in check
    order); [None] for leaves. Enforcement caches use it to recurse
    without re-flattening. *)

val check_count : unit -> int
(** Global number of leaf policy checks executed — benchmarks and tests use
    it to observe how much checking composition saves (Fig. 9c). *)

val reset_check_count : unit -> unit

(** Family definition. *)
module type FAMILY = sig
  type s

  val name : string
  (** Must be unique per family; the built-in names start with a dot. *)

  val check : s -> Context.t -> bool

  val join : (s -> s -> s option) option
  (** Same-family join; [None] disables joining, [Some f] may still decline
      pairwise ([f a b = None]) in which case the pair is stacked. *)

  val no_folding : bool
  val describe : s -> string
end

module Make (F : FAMILY) : sig
  val make : F.s -> t
  val state : t -> F.s option
  (** [Some] iff the policy belongs to this family. *)
end

val id : t -> int
(** A unique instance identifier. Conjunction uses it to drop duplicate
    members ([P AND P = P]), and sinks use it to memoize check verdicts for
    a shared instance within one release operation. *)
