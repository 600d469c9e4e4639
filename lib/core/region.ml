module Scrut = Sesame_scrutinizer
module Sbx = Sesame_sandbox
module Sign = Sesame_signing
module Http = Sesame_http

type error =
  | Not_leakage_free of Scrut.Analysis.verdict
  | Policy_denied of { policy : string; context : string }
  | Unsigned of { region : string }
  | Signature_invalid of Sign.Keystore.error
  | Hashing_failed of string
  | Decode_failed of string
  | Sandbox_trapped of { region : string; trap : Sbx.Runtime.trap }
  | Quota_denied of { region : string; state : string }
  | Attest_failed of { region : string }

let pp_error fmt = function
  | Not_leakage_free v ->
      Format.fprintf fmt "region is not leakage-free: %a" Scrut.Analysis.pp_verdict v
  | Policy_denied { policy; context } ->
      Format.fprintf fmt "policy check failed: %s against context [%s]" policy context
  | Unsigned { region } ->
      Format.fprintf fmt "critical region %s has no reviewer signature" region
  | Signature_invalid e ->
      Format.fprintf fmt "signature invalid: %a" Sign.Keystore.pp_error e
  | Hashing_failed msg -> Format.fprintf fmt "region hashing failed: %s" msg
  | Decode_failed msg -> Format.fprintf fmt "sandbox output decode failed: %s" msg
  | Sandbox_trapped { region; trap } ->
      Format.fprintf fmt "sandboxed region %s trapped: %a" region Sbx.Runtime.pp_trap trap
  | Quota_denied { region; state } ->
      Format.fprintf fmt "sandboxed region %s refused: %s" region state
  | Attest_failed { region } ->
      Format.fprintf fmt "region %s could not be attested; failing closed" region

let error_to_string e = Format.asprintf "%a" pp_error e

let check_policy policy context =
  match Policy.check_verbose policy context with
  | Ok () -> Ok ()
  | Error msg ->
      Error (Policy_denied { policy = msg; context = Context.describe context })

(* Region failures carry internal detail (sandbox traps, hash/decode
   messages, Scrutinizer verdicts); none of it belongs in a client-facing
   body. Explicit variants, no catch-all, so a new variant must be
   placed here. *)
let error_response = function
  | Policy_denied _ -> Http.Response.error Http.Status.Forbidden "policy check failed"
  | Quota_denied _ ->
      (* Quota exhaustion is load shedding, not a server bug: retryable. *)
      Http.Response.error (Http.Status.Code 503) "service temporarily unavailable"
  | Not_leakage_free _ | Unsigned _ | Signature_invalid _ | Hashing_failed _ | Decode_failed _
  | Sandbox_trapped _ | Attest_failed _ ->
      Http.Response.error Http.Status.Internal_error "internal error"

let ( let* ) = Result.bind

(* The one quota gate sandboxed and critical runs pass: admit the run on
   the region's books and hand back the charge for it. A refusal, or a
   charge the [quota-account] seam stops, is a [Quota_denied] — a run is
   never served unaccounted. Without a quota every run admits and the
   charge is free. *)
let admit_run quota ~region ~key =
  let deny state = Error (Quota_denied { region; state }) in
  match quota with
  | None -> Ok (fun ~trapped:_ ~fuel:_ ~wall_s:_ ~mem_bytes:_ -> Ok ())
  | Some q -> (
      match Sbx.Quota.admit q ~key with
      | Sbx.Quota.Deny_quota _ as refused -> deny (Sbx.Quota.admission_message refused)
      | Sbx.Quota.Admit ->
          Ok
            (fun ~trapped ~fuel ~wall_s ~mem_bytes ->
              match Sbx.Quota.account q ~key ~trapped ~fuel ~wall_s ~mem_bytes with
              | () -> Ok ()
              | exception Sesame_faults.Injected _ ->
                  deny "usage accounting failed; result withheld"))

(* Attestation hooks. When an ambient recorder is installed
   (Sign.Attest.install — bench serve, the demo with --attest-log),
   every region installation appends an approval frame binding its body
   hash to the verdict it was installed under, and every sandboxed run
   appends a signed manifest. A frame that cannot be appended fails the
   region closed: an unattested run must not be served. *)

let record_approval ~kind ~body_hash ~verdict =
  match Sign.Attest.current () with
  | None -> Ok ()
  | Some recorder -> Sign.Attest.append_approval recorder ~kind ~body_hash ~verdict

module Verified = struct
  type ('a, 'b) t = {
    name : string;
    f : 'a -> 'b;
    verdict : Scrut.Analysis.verdict;
  }

  let make ~app ~program ?allowlist ~spec ~f () =
    let verdict = Scrut.Analysis.check ?allowlist program spec in
    if not verdict.Scrut.Analysis.accepted then Error (Not_leakage_free verdict)
    else begin
      let name = spec.Scrut.Spec.name in
      Registry.register
        {
          Registry.app;
          region = name;
          kind = Registry.Verified;
          loc = Scrut.Spec.loc spec;
          review_loc = 0;
        };
      let body_hash = Sign.Sha256.digest_list [ "sesame-vr-body-v1"; app; name ] in
      match record_approval ~kind:"verified" ~body_hash ~verdict:"scrutinizer:accepted" with
      | Error _ -> Error (Attest_failed { region = name })
      | Ok () -> Ok { name; f; verdict }
    end

  let verdict t = t.verdict
  let name t = t.name

  let run t pcon = Pcon.Internal.map t.f pcon
  let run2 t a b = Pcon.Internal.map2 (fun x y -> t.f (x, y)) a b

  let run_list t pcons =
    let folded = Fold.out_list pcons in
    Pcon.Internal.map t.f folded
end

module Sandboxed = struct
  type ('a, 'b) t = {
    name : string;
    config : Sbx.Runtime.config;
    encode : 'a -> Sbx.Value.t;
    decode : Sbx.Value.t -> ('b, string) result;
    f : Sbx.Value.t -> Sbx.Value.t;
    body_hash : Sign.Sha256.t;
    body_hex : string;
    verdict : string;
    quota : Sbx.Quota.t option;
    preflight_hex : string;
    budgets_str : string;
    attest_broken : bool;
    mutable last : Sbx.Runtime.timings option;
  }

  let budget_string (b : Sbx.Runtime.budget) =
    let parts =
      List.filter_map Fun.id
        [
          Option.map (Printf.sprintf "deadline=%.3fs") b.Sbx.Runtime.deadline_s;
          Option.map (Printf.sprintf "fuel=%d") b.Sbx.Runtime.fuel;
          Option.map (Printf.sprintf "mem=%d") b.Sbx.Runtime.mem_bytes;
        ]
    in
    if parts = [] then "unbounded" else String.concat " " parts

  (* Outcome classes only — never trap detail, which can carry a guest
     exception rendering. *)
  let trap_class = function
    | Sbx.Runtime.Guest_exception _ -> "trap:guest-exception"
    | Sbx.Runtime.Syscall_blocked _ -> "trap:syscall-blocked"
    | Sbx.Runtime.Sandbox_fault _ -> "trap:sandbox-fault"
    | Sbx.Runtime.Fault_injected _ -> "trap:fault-injected"
    | Sbx.Runtime.Deadline_exceeded _ -> "trap:deadline"
    | Sbx.Runtime.Fuel_exhausted _ -> "trap:fuel"
    | Sbx.Runtime.Memory_exceeded _ -> "trap:memory"

  let make ~app ~name ?(config = Sbx.Runtime.default_config) ?source ?quota
      ?(verdict = "sandboxed:delegated") ~loc ~encode ~decode ~f () =
    Registry.register
      { Registry.app; region = name; kind = Registry.Sandboxed; loc; review_loc = 0 };
    (* The body hash keys quota books and attestation frames. [source]
       lets apps bind the actual region body text; absent that, the
       (app, name) pair identifies the installation site. *)
    let source = Option.value source ~default:(app ^ "/" ^ name) in
    let body_hash = Sign.Sha256.digest_list [ "sesame-sbx-body-v1"; app; name; source ] in
    let preflight_hex =
      match config.Sbx.Runtime.mode with
      | Sbx.Runtime.Pooled pool -> (
          match Sbx.Pool.preflight_report pool with
          | Some r -> Sign.Sha256.to_hex (Sign.Sha256.digest_string (Sbx.Preflight.render r))
          | None -> "none")
      | Sbx.Runtime.Naive -> "none"
    in
    (* [make] cannot fail, so a broken approval append latches: every
       run of this region then fails closed with [Attest_failed]. *)
    let attest_broken =
      match record_approval ~kind:"sandboxed" ~body_hash ~verdict with
      | Ok () -> false
      | Error _ -> true
    in
    {
      name;
      config;
      encode;
      decode;
      f;
      body_hash;
      body_hex = Sign.Sha256.to_hex body_hash;
      verdict;
      quota;
      preflight_hex;
      budgets_str = budget_string config.Sbx.Runtime.budget;
      attest_broken;
      last = None;
    }

  let name t = t.name
  let body_hash t = t.body_hash
  let quota_counters t =
    Option.bind t.quota (fun q -> Sbx.Quota.counters_for q ~key:t.body_hex)

  let record_run t (outcome : Sbx.Runtime.outcome) =
    match Sign.Attest.current () with
    | None -> Ok ()
    | Some recorder ->
        let outcome_str =
          match outcome.Sbx.Runtime.status with
          | Sbx.Runtime.Ok _ -> "ok"
          | Sbx.Runtime.Trapped trap -> trap_class trap
        in
        let quota_str =
          match t.quota with
          | None -> "off"
          | Some q -> Sbx.Quota.state_string q ~key:t.body_hex
        in
        Sign.Attest.append_run recorder ~region:t.name ~body_hash:t.body_hash
          ~verdict:t.verdict ~budgets:t.budgets_str ~outcome:outcome_str ~quota:quota_str
          ~preflight:t.preflight_hex

  let run_value t policy value =
    let* charge = admit_run t.quota ~region:t.name ~key:t.body_hex in
    if t.attest_broken then Error (Attest_failed { region = t.name })
    else begin
      let outcome = Sbx.Runtime.run t.config ~input:value ~f:t.f in
      t.last <- Some outcome.Sbx.Runtime.timings;
      let* () =
        charge
          ~trapped:
            (match outcome.Sbx.Runtime.status with
            | Sbx.Runtime.Trapped _ -> true
            | Sbx.Runtime.Ok _ -> false)
          ~fuel:outcome.Sbx.Runtime.usage.Sbx.Runtime.fuel_used
          ~wall_s:(Sbx.Runtime.total_s outcome.Sbx.Runtime.timings)
          ~mem_bytes:outcome.Sbx.Runtime.usage.Sbx.Runtime.mem_bytes
      in
      match record_run t outcome with
      | Error _ -> Error (Attest_failed { region = t.name })
      | Ok () -> (
          match outcome.Sbx.Runtime.status with
          | Sbx.Runtime.Trapped trap -> Error (Sandbox_trapped { region = t.name; trap })
          | Sbx.Runtime.Ok value -> (
              match t.decode value with
              | Ok result -> Ok (Pcon.Internal.make policy result)
              | Error msg -> Error (Decode_failed msg)))
    end

  let run t pcon =
    run_value t (Pcon.policy pcon) (t.encode (Pcon.Internal.unwrap pcon))

  let run_list t pcons =
    let folded = Fold.out_list pcons in
    let elems = List.map t.encode (Pcon.Internal.unwrap folded) in
    run_value t (Pcon.policy folded) (Sbx.Value.Vec elems)

  let last_timings t = t.last
end

module Critical = struct
  type ('a, 'b) t = {
    name : string;
    f : context:Context.t -> 'a -> 'b;
    digest : Sign.Sha256.t;
    digest_hex : string;  (* keys the quota books, like [Sandboxed.body_hex] *)
    review_loc : int;
    keystore : Sign.Keystore.t;
    quota : Sbx.Quota.t option;
    mutable signature : Sign.Signature.t option;
  }

  let make ~app ~program ?(allowlist = Scrut.Allowlist.default) ~spec ~lockfile ~keystore
      ?quota ~f () =
    let graph = Scrut.Callgraph.collect program ~allowlist spec in
    let input =
      {
        Sign.Region_hash.entry = spec.Scrut.Spec.name;
        functions = Scrut.Callgraph.in_crate_sources graph spec;
        external_deps = Scrut.Callgraph.external_packages graph;
        lockfile;
      }
    in
    match Sign.Region_hash.compute input with
    | Error msg -> Error (Hashing_failed msg)
    | Ok digest -> (
        let review_loc = Sign.Region_hash.review_burden_loc input in
        Registry.register
          {
            Registry.app;
            region = spec.Scrut.Spec.name;
            kind = Registry.Critical;
            loc = Scrut.Spec.loc spec;
            review_loc;
          };
        (* The critical region's body hash IS its review digest. *)
        match record_approval ~kind:"critical" ~body_hash:digest ~verdict:"critical:reviewed" with
        | Error _ -> Error (Attest_failed { region = spec.Scrut.Spec.name })
        | Ok () ->
            Ok
              {
                name = spec.Scrut.Spec.name;
                f;
                digest;
                digest_hex = Sign.Sha256.to_hex digest;
                review_loc;
                keystore;
                quota;
                signature = None;
              })

  let name t = t.name
  let digest t = t.digest
  let review_burden_loc t = t.review_loc

  let sign t ~reviewer ~at =
    match Sign.Keystore.sign t.keystore ~reviewer ~at t.digest with
    | Ok signature ->
        t.signature <- Some signature;
        Ok ()
    | Error e -> Error (Signature_invalid e)

  let attach_signature t signature = t.signature <- Some signature
  let signature t = t.signature

  let validate_signature t =
    match t.signature with
    | None -> Error (Unsigned { region = t.name })
    | Some signature -> (
        match Sign.Keystore.verify t.keystore signature ~digest:t.digest with
        | Ok () -> Ok ()
        | Error e -> Error (Signature_invalid e))

  let quota_counters t =
    Option.bind t.quota (fun q -> Sbx.Quota.counters_for q ~key:t.digest_hex)

  let release_check t = if Build_mode.is_release () then validate_signature t else Ok ()

  (* Critical runs go through the same books as sandboxed ones: the
     raw-policy path is not exempt from admission. Fuel and memory are 0
     (the body runs unsandboxed, so only wall-clock and run counts are
     observable); an exception still charges a trap before re-raising. *)
  let run_checked t ~context pcon =
    let* charge = admit_run t.quota ~region:t.name ~key:t.digest_hex in
    let* () = check_policy (Pcon.policy pcon) context in
    let started = Sesame_clock.now_s () in
    let account ~trapped =
      charge ~trapped ~fuel:0 ~wall_s:(Sesame_clock.now_s () -. started) ~mem_bytes:0
    in
    match t.f ~context (Pcon.Internal.unwrap pcon) with
    | result ->
        let* () = account ~trapped:false in
        Ok result
    | exception exn ->
        (* Charge the trap even though the caller sees the exception —
           a region that always raises must still exhaust its quota. An
           injected accounting fault here is moot: the raise already
           withholds the result. *)
        (match account ~trapped:true with Ok () | Error _ -> ());
        raise exn

  let run t ~context pcon =
    let* () = release_check t in
    run_checked t ~context pcon

  (* One signature check covers the batch: a revocation takes effect
     from the next call, never part-way through one. *)
  let run_each t ~context pcons =
    match release_check t with
    | Error e -> List.map (fun _ -> Error e) pcons
    | Ok () -> List.map (run_checked t ~context) pcons
end
