(** WebSubmit: the homework-submission case study (§9, §10).

    The paper's WebSubmit is a class-submission system extended with a
    grade-prediction model, aggregate statistics for administrators and
    employers, and consent choices. It carries seven policies (§9) and is
    the application behind the end-to-end performance figures (Fig. 8),
    the sandbox drill-downs (Fig. 9a/9b), and the policy-composition
    experiment (Fig. 9c).

    Endpoints mirror the paper's:
    - [POST /register] — register with an API key, hashed in a {e sandboxed
      region} ("Register Users");
    - [POST /submit/<lecture>/<question>] — Fig. 1's flow: store the
      answer, format a confirmation in a {e verified region}, email it via
      a signed {e critical region};
    - [GET /view/<answer_id>] — Fig. 2's flow;
    - [GET /answers/<lecture>] — staff view; [?compose=true] folds the
      answers' policies (Fig. 9c ablation);
    - [GET /aggregates] — per-lecture average grades under k-anonymity
      ("Get Aggregates");
    - [GET /employer] — consenting students' averages for employers ("Get
      Employer Info");
    - [POST /consent] — the user's consent choice for employer release and
      model training;
    - [POST /retrain] — trains the grade model in a sandbox ("Retrain
      Model");
    - [GET /predict/<email>] — model inference in a verified region
      ("Predict Grades"). *)

module C := Sesame_core
module Db := Sesame_db
module Http := Sesame_http
module Wal := Sesame_wal
module Scrut := Sesame_scrutinizer
module Sbx := Sesame_sandbox

type t

val app_name : string
(** ["websubmit"] — the registry key. *)

type hardening = {
  sandbox_pool : Sbx.Pool.t;
  preflight : Sbx.Preflight.report;
  quota : Sbx.Quota.t;
  sandbox_config : Sbx.Runtime.config;
}
(** The sandbox-hardening bundle both sandboxed regions share when the
    app is created with one: a preflighted pool, per-run budgets, and a
    cumulative quota accountant. *)

val harden :
  ?pool_capacity:int ->
  ?max_pool_capacity:int ->
  ?arena_size:int ->
  ?quota_limits:Sbx.Quota.limits ->
  ?budget:Sbx.Runtime.budget ->
  unit ->
  (hardening, string) result
(** Runs the boot-time SFI preflight battery and constructs the bundle;
    fails closed (with the missed checks named) if any trap test is not
    caught — an app asked to harden never falls back to an unverified
    pool. Defaults: 4 arenas of 256 KiB (growable to [max_pool_capacity]
    via {!Sbx.Pool.set_capacity}), a 5 s / 1M-fuel / 128 KiB per-run
    budget, no cumulative limits. *)

val hardening : t -> hardening option
(** The bundle this instance was created with, for stats surfacing. *)

val create :
  ?query_cost_ns:int -> ?k_anonymity:int -> ?hardening:hardening -> unit -> (t, string) result
(** Builds schemas, policies, regions (running Scrutinizer on the verified
    ones), and signs the critical regions with the built-in reviewer key.
    [query_cost_ns] models the DB round trip (Fig. 9c); [k_anonymity]
    defaults to 5. [hardening] (default off) runs both sandboxed regions
    on the bundle's preflighted pool, under its budgets and quota. *)

val create_durable :
  ?query_cost_ns:int ->
  ?k_anonymity:int ->
  ?durable_config:Wal.Durable.config ->
  ?hardening:hardening ->
  data_dir:string ->
  unit ->
  (t * Wal.Durable.t, string) result
(** Like {!create}, but over a crash-consistent durable store rooted at
    [data_dir] (see {!Sesame_wal.Durable}): registers the seven policy
    families with the provenance registry, recovers checkpoint + WAL
    (fail-closed — a store that cannot prove every row's policy refuses
    to open), creates any missing tables, and resumes the answer-id
    sequence past the largest recovered id. *)

val policy_family_names : string list
(** The seven families' stable constructor names, as journaled. *)

val answer_count : t -> int
(** Rows currently in [answers] — lets a durable caller decide whether
    seeding is needed after recovery. *)

val conn : t -> C.Sesame_conn.t
val database : t -> Db.Database.t

val program : t -> Scrut.Program.t
(** The IR program the app's regions are checked against. *)

val recover : t -> (Wal.Durable.t, string) result
(** Leave brownout (see {!C.Sesame_conn.exit_brownout}): recover a fresh
    writable store from disk, swap it into the connector, and rebind the
    app's direct-db paths (authentication, registration, [answer_count])
    to the recovered handle. Returns the new store so durable callers
    can rebind checkpoint/flush plumbing; the old handle is closed. *)

val router : t -> Http.Router.t
(** A freshly built router over [t]'s endpoints. {!handle} dispatches
    on the one built at creation. *)

val seed : t -> students:int -> questions:int -> (unit, string) result
(** Loads the Fig. 8 workload: [students] users (every third consents to
    both employer release and ML training) and one graded answer per
    (student, question) for a single lecture, plus a second lecture with
    discussion leaders. *)

val handle : t -> Http.Request.t -> Http.Response.t

(** Direct handles used by benchmarks (bypassing routing, not policy): *)

val get_aggregates : t -> Http.Request.t -> Http.Response.t
val get_employer_info : t -> Http.Request.t -> Http.Response.t
val predict_grades : t -> Http.Request.t -> Http.Response.t
val register_user : t -> Http.Request.t -> Http.Response.t
val retrain_model : t -> Http.Request.t -> Http.Response.t

val model : t -> (float * float) C.Pcon.t option
(** The [(weight, intercept)] the last successful {!retrain_model}
    trained, under the training rows' folded policy. *)

val submit_answer : t -> Http.Request.t -> Http.Response.t
val view_answer : t -> Http.Request.t -> Http.Response.t
val view_answers : t -> compose:bool -> Http.Request.t -> Http.Response.t
val update_consent : t -> Http.Request.t -> Http.Response.t
(** [POST /consent] with form [consent=true|false]: the §9 consent choice.
    Every later check reads the updated consent. *)

val policy_inventory : (string * int * int) list
(** [(policy, policy_loc, check_loc)] accounting used for Fig. 5. *)

(** {1 Check elision}

    The static model consumed by {!Sesame_scrutinizer.Elision} and the
    runtime plan compiled from its verdicts (see DESIGN.md, "Check
    elision & predicate pushdown"). *)

val elision_families : Scrut.Elision.family list
(** The seven families: inspected places, identically-true clauses, and
    pushability. *)

val elision_sites : Scrut.Elision.site list
(** The elidable release sites: [/aggregates], [/predict] (with the
    verified predict region), [/retrain], and [/employer] (residual by
    design — consent can never be elided). *)

val elision_certificates : t -> Scrut.Elision.certificate list
(** The full classification of this instance's program against the
    model, one certificate per (site, sink, family) triple. *)

val install_plan : t -> unit
(** Installs this instance's certificates and the sites' release sinks
    with {!C.Enforce.Plan.install}; installing again adds nothing.
    Called by {!create}/{!create_durable}; exposed so tests can
    reinstall after {!C.Enforce.Plan.clear}. *)

val sandbox_hash_region : t -> (string, string) C.Region.Sandboxed.t
(** The "Register Users" hashing region, exposed for the Fig. 9a
    drill-down. *)

val sandbox_train_region : t -> (Db.Value.t array list, float list) C.Region.Sandboxed.t
(** The "Retrain Model" region, exposed for Fig. 9b. *)
