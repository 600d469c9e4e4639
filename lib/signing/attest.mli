(** The signed run-attestation log.

    Closes the loop between static verdicts and runtime isolation
    (Harpocrates' fail-closed posture meets Data Capsule's auditable
    artifact trail): every region installation appends a signed
    {e approval} frame binding its body hash to the Scrutinizer verdict
    it passed, and every sandbox invocation appends a signed {e run}
    manifest binding {body hash, verdict fingerprint, budgets, outcome,
    quota state, preflight report hash}. Frames are written and read by
    [Sesame_wal.Wal] ([u32 len | u32 crc | payload], little-endian,
    after an [SSMATT01] header) and individually MAC'd with
    {!Signature} under the attestor's secret; {!verify} replays the log and fails on any run
    whose body hash lacks an approving verdict, any CRC mismatch, and
    any signature that does not check out.

    Fail closed: the [attest-append] seam fires before anything is
    written and [attest-fsync] between write and flush; a run whose
    manifest cannot be appended must be denied, not served. *)

val default_secret : string
(** Symmetric test-fixture secret (the keystore analogue of the
    reviewer secrets baked into app fixtures); deployments supply their
    own via [create_recorder]/[verify]. *)

val default_signer : string

type approval = {
  kind : string;  (** [verified] / [sandboxed] / [critical] *)
  body_hash : Sha256.t;
  verdict : string;  (** Scrutinizer verdict fingerprint *)
  at : int;
}

type manifest = {
  seq : int;
  region : string;
  run_body_hash : Sha256.t;
  run_verdict : string;
  budgets : string;
  outcome : string;  (** ["ok"] or the trap/denial class — never guest data *)
  quota : string;  (** the region's quota books when this run was recorded *)
  preflight : string;  (** hex hash of the pool's preflight report, or ["none"] *)
  run_at : int;
}

type frame = Approval of approval | Run of manifest

(** {1 Recording} *)

type recorder

val create_recorder :
  ?fsync:bool ->
  ?secret:string ->
  ?signer:string ->
  ?warn:(string -> unit) ->
  string ->
  (recorder, string) result
(** Opens (appending) or creates the log at the given path, guarded by
    a {!Lockfile.File_lock} at [path ^ ".lock"] so two processes cannot
    interleave frames. [fsync] (default false) flushes every frame.

    An existing log is scanned first. A torn tail (the bytes from the
    first frame that claims more bytes than the file holds) is cut
    before the first append, and [warn] (default:
    {!Lockfile.File_lock.default_warn}, which also receives stale-lock
    breaks) gets one line naming the offset and the number of bytes
    cut: a crash mid-append cuts part of one frame, but a corrupt
    length field in an earlier frame cuts every frame after it, and
    only the count tells the two apart. A CRC mismatch in a whole frame
    is refused. *)

val append_approval :
  recorder -> kind:string -> body_hash:Sha256.t -> verdict:string -> (unit, string) result

val append_run :
  recorder ->
  region:string ->
  body_hash:Sha256.t ->
  verdict:string ->
  budgets:string ->
  outcome:string ->
  quota:string ->
  preflight:string ->
  (unit, string) result
(** Both appends are serialized under the recorder's mutex and hit the
    attestation fault seams; an [Error] means the frame is not durably
    bound and the caller must fail the run closed. *)

val close_recorder : recorder -> unit
(** Idempotent; releases the file lock. *)

(** {1 The ambient recorder}

    Installed once at boot (bench serve, demo [--attest-log]); regions
    consult it at installation and per run. [None] (the default) means
    attestation is off and regions run unrecorded. *)

val install : recorder -> unit
val uninstall : unit -> unit
val current : unit -> recorder option

(** {1 Verification} *)

type verify_summary = {
  approvals : int;
  runs : int;
  distinct_bodies : int;
  torn_tail : bool;  (** an incomplete trailing frame (crash mid-append) was ignored *)
}

val verify : ?secret:string -> string -> (verify_summary, string) result
(** Replays the log: checks magic, every frame's CRC and signature, and
    that every run's body hash carries an {e earlier} approving verdict
    (installation precedes execution). A torn {e trailing} frame is
    tolerated (and flagged); corruption anywhere else is an error. *)

val frames : ?secret:string -> string -> (frame list, string) result
(** The raw frames (CRC- and signature-checked), for tests and tooling. *)
