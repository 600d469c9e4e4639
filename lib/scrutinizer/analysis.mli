(** Scrutinizer's leakage-freedom analysis (§7.1, Appendix A stage two).

    Given a program and a region spec, decides whether the region can leak
    its sensitive arguments (or data derived from them, directly or via
    control flow) outside the region. The analysis is sound but incomplete:
    it rejects on the paper's three cases, using the strengthened
    easier-to-detect variants the paper describes —

    + any mutable capture is rejected up front, whether or not it is
      written;
    + unsafe mutation of capture-derived data is rejected regardless of
      mutability, and unsafe mutation through pointers whose target cannot
      be resolved ({!Ir.Opaque_unsafe}) is rejected unconditionally —
      known-target unsafe writes into locals and parameters are analyzed
      like ordinary assignments, which is what lets most std-collection
      methods pass the §10.3 study;
    + calls into bodies the analyzer cannot see (native code, unknown
      functions) are rejected when sensitive data flows into them or when
      they execute under sensitive control flow; unresolvable dynamic
      dispatch and function-pointer calls are rejected unconditionally at
      collection time.

    Writes to globals, and writes through references that may alias a
    captured variable, are rejected when the written value or the ambient
    control flow is sensitive. Calls whose arguments are all insensitive
    (under insensitive control flow) are skipped, as in the paper.

    {2 Place sensitivity}

    The abstract domain tracks {e places} — bounded access paths
    [v], [v.f], [v.f.g] up to depth 2, widening to the depth-2 prefix
    beyond (see {!Ir.place}) — rather than whole variables, mirroring the
    paper's analysis of rustc-MIR places. Whole-variable bindings update
    strongly; field writes and writes through references join weakly at
    their path. A read of a place sees exactly the entries whose path
    overlaps its own (prefixes and extensions), so a tainted [rec.secret]
    no longer poisons a read of [rec.public]. Function summaries carry
    per-parameter {e per-path} write-back sets, keeping the precision
    across call boundaries. Index projections are modeled at the base
    (index-insensitive).

    {2 Witness provenance}

    Every rejection carries a non-empty witness {!type:trace}: the path
    sensitive data took from a source binding through intermediate flows,
    branches, and call boundaries to the rejected sink, spliced across
    calls from the callee-relative traces stored in summaries. Traces are
    decoration — they never influence verdicts or termination — and are
    deterministic: two checks of one region produce byte-identical
    rejections.

    The engine is a worklist-based fixpoint solver over per-function
    summaries. A summary maps a calling context (function, argument taint
    signature, pc) to the function's {e effect}: return-value taint,
    the parameter places through which sensitive data may be written back
    to the caller, and the rejections raised in the function's subtree.
    Effects form a finite join-semilattice and only ever grow, so the
    solver terminates; recursive cycles start from bottom and are
    re-iterated until stable rather than pessimistically assumed tainted.
    Verdict rejections are published by one final deterministic walk of
    the spec body after the fixpoint is reached, so their order and
    traces are independent of worklist scheduling.

    Accepted verdicts are checked against execution: the test suite runs
    accepted regions in a reference interpreter for the IR and checks
    that changing the sensitive arguments never changes what an observer
    sees. *)

type reason =
  | Mutable_capture of { var : string }
  | Capture_mutation of { func : string; var : string }
  | Unsafe_mutation of { func : string }
  | Tainted_native_call of { func : string; callee : string }
  | Unknown_body_call of { func : string; callee : string }
  | Unresolvable_dispatch of { func : string; method_name : string }
  | Fn_pointer_call of { func : string }
  | Tainted_global_write of { func : string; global : string }

val pp_reason : Format.formatter -> reason -> unit
val reason_to_string : reason -> string

(** One hop of a witness path. [Source] is the sensitive binding the flow
    starts from; [Flow] a value assignment; [Branch] control-flow
    dependence; [Call]/[Return]/[Writeback] movement across a call
    boundary; [Sink] the rejected operation itself. *)
type step_kind = Source | Flow | Branch | Call | Return | Writeback | Sink

type step = {
  step_kind : step_kind;
  step_fn : string;  (** the function the step occurs in *)
  step_detail : string;  (** human-readable description of the hop *)
}

val pp_step : Format.formatter -> step -> unit
val step_to_string : step -> string

val pp_trace : Format.formatter -> step list -> unit
(** One step per line. *)

type rejection = {
  reason : reason;
  trace : step list;  (** non-empty witness path ending at the sink *)
}

val pp_rejection : Format.formatter -> rejection -> unit
(** The reason only; use {!pp_trace} (or {!pp_verdict}) for the witness. *)

val rejection_to_string : rejection -> string

type stats = {
  functions_analyzed : int;  (** distinct functions in the call tree *)
  duration_s : float;  (** monotonic wall-clock seconds *)
}

type verdict = {
  accepted : bool;
  rejections : rejection list;  (** empty iff [accepted] *)
  stats : stats;
}

val check : ?allowlist:Allowlist.t -> Program.t -> Spec.t -> verdict
(** Analyze one privacy region. Defaults to {!Allowlist.default}. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** Renders each rejection with its witness trace indented beneath it. *)

(** {2 Place-exposure probes}

    The check-elision pass ({!Elision}) asks a finer question than
    {!check}: can one specific {e place} — parameter [p] at access path
    [path] — reach the region's output or any sink? A probe re-runs the
    fixpoint with every parameter untainted except the probed place, and
    reports the place released iff the final deterministic walk taints
    the return value or publishes any rejection. Probes share the
    summary machinery with {!check}. A region whose call graph is
    incomplete (unresolvable dispatch, function pointers, mutable
    captures) proves nothing about any place: every probe on it reports
    released, conservatively. *)

type exposure = {
  exp_param : string;  (** the probed region parameter *)
  exp_path : string list;  (** the probed access path, depth-truncated *)
  exp_released : bool;  (** can the place escape the region? *)
  exp_trace : step list;  (** witness when released; empty otherwise *)
}

val param_exposures :
  ?allowlist:Allowlist.t ->
  Program.t ->
  Spec.t ->
  places:(string * string list) list ->
  exposure list
(** One exposure per requested [(param, path)] place, in input order.
    Paths deeper than the analysis depth are truncated to their tracked
    prefix (which can only over-approximate the release). *)
