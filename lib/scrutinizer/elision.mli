(** Check-elision analysis.

    Sesame pays for compliance at runtime even when the static phase
    already knows a check cannot deny. This pass consumes the analysis
    engine's per-parameter place-sensitive machinery and, per
    (endpoint, sink, policy-family) triple, classifies each runtime
    policy check:

    - {b Redundant} — provably a no-op at this site, by one of two
      rules. {e Field disjointness}: the region feeding the sink
      provably never releases any field the policy's verdict depends on
      ({!Analysis.param_exposures}). {e Context satisfaction}: the
      atoms every context at this site is known to satisfy entail a
      clause under which the family's check is identically true.
    - {b Pushable} — the family exposes a row-predicate translation
      ([to_expr]), so the check can run inside the DB scan instead of
      instantiating per-row policy objects post-hoc.
    - {b Residual} — the runtime check stands, with the reason.

    Every Redundant verdict carries a replayable proof witness in the
    same step vocabulary as the engine's rejection witnesses: {!replay}
    re-derives the certificate from the models and the program and
    confirms (or refutes) it byte-for-byte. The pass never trusts a
    certificate at runtime without a context guard: the satisfying
    clause is re-evaluated against each concrete context by the
    enforcement layer, so a site model that over-claims its facts can
    only lose elisions, never verdicts. *)

(** One fact about every context reaching a site, in the vocabulary the
    enforcement layer can re-check at runtime. [Principal_in] speaks
    about the acting principal: the ["recipient"] custom field when
    present, the authenticated user otherwise. *)
type atom =
  | Sink_is of string
  | Sink_not of string
  | Custom_eq of string * string
  | Custom_not of string * string  (** absent counts as "not" *)
  | Principal_in of string list

val pp_atom : Format.formatter -> atom -> unit
val atom_to_string : atom -> string

(** Static model of one policy family. [inspects] lists the
    [(table, column-path)] places whose contents the check's verdict can
    depend on (empty for purely contextual families); [satisfied_when]
    is a DNF — any clause whose atoms all hold makes the check
    identically true for every instance of the family; [pushable] marks
    families whose bindings translate to a row predicate. *)
type family = {
  family : string;
  inspects : (string * string list) list;
  satisfied_when : atom list list;
  pushable : bool;
}

(** Static model of one endpoint: the sinks its released data can reach,
    the atoms guaranteed for every context it builds, and — when the
    released data flows out of a privacy region — the region spec plus
    which region parameters carry rows of which table. *)
type site = {
  endpoint : string;
  sinks : string list;
  facts : atom list;
  region : Spec.t option;
  row_params : (string * string) list;  (** region param -> table *)
}

type proof =
  | Field_disjoint of { param : string; path : string list }
      (** the region never releases the inspected place *)
  | Context_satisfies of { clause : atom list }
      (** the site's facts entail this satisfying clause *)

type verdict =
  | Redundant of proof
  | Pushable
  | Residual of string  (** why the runtime check stands *)

type certificate = {
  cert_endpoint : string;
  cert_sink : string;
  cert_family : string;
  cert_verdict : verdict;
  cert_witness : Analysis.step list;  (** replayable proof witness *)
}

val entails : atom list -> atom -> bool
(** [entails facts a]: does every context satisfying all of [facts]
    satisfy [a]? Purely syntactic, sound, incomplete. *)

val classify :
  ?allowlist:Allowlist.t ->
  program:Program.t ->
  families:family list ->
  sites:site list ->
  unit ->
  certificate list
(** One certificate per (site, sink, family) triple, in model order.
    Context satisfaction is tried first (it is sink-local and needs no
    region), then field disjointness via {!Analysis.param_exposures},
    then pushability. *)

val replay :
  ?allowlist:Allowlist.t ->
  program:Program.t ->
  families:family list ->
  sites:site list ->
  certificate ->
  bool
(** Re-derive the certificate's triple from scratch and compare: [true]
    iff classification still produces the same verdict. A replay that
    fails means the models or the program drifted under the
    certificate. *)

val pp_certificate : Format.formatter -> certificate -> unit
(** Verdict line plus the indented proof witness. *)

val verdict_name : verdict -> string
(** ["redundant"], ["pushable"], or ["residual"]. *)
