(* The sandbox-hardening surface: the boot-time SFI preflight battery
   (fail closed on any missed trap), cumulative per-region quotas (exact
   books under concurrent admission, refusal and accounting), the
   server autoscaler's floor pre-spawn, burst workers' policy checks,
   the signed run-attestation log
   (round-trip, ordering, tamper, torn tail), and stale-lock breaking. *)

open Sesame_core
module Sbx = Sesame_sandbox
module Sign = Sesame_signing
module F = Sesame_faults
module Http = Sesame_http
module Apps = Sesame_apps
module Server = Sesame_server
module Wire = Http.Wire

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

let with_plans plans f =
  F.arm plans;
  Fun.protect ~finally:F.disarm f

let ok_or_fail = function Ok v -> v | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Preflight: every deliberate trap must be caught, and a build on which
   any is missed must refuse to construct a pool. *)

let battery_size = List.length (Sbx.Sfi.run ()).Sbx.Preflight.checks

let preflight_tests =
  [
    test "the battery passes on this build and reports every check" (fun () ->
        let report = Sbx.Sfi.run () in
        check_bool "passed" true (Sbx.Preflight.passed report);
        check_bool "battery is non-trivial" true (battery_size >= 9);
        check_int "no check missed" 0 (List.length (Sbx.Preflight.missed report));
        (* The render is the attestation fingerprint: every check name
           must appear in it. *)
        let rendered = Sbx.Preflight.render report in
        List.iter
          (fun (c : Sbx.Preflight.check) ->
            check_bool (c.name ^ " rendered") true (contains rendered c.name))
          report.Sbx.Preflight.checks);
    test "create_pool gates on the battery and attaches the report" (fun () ->
        match Sbx.Sfi.create_pool ~capacity:2 () with
        | Error report -> Alcotest.fail (Sbx.Preflight.summary report)
        | Ok (pool, report) ->
            check_bool "report passed" true (Sbx.Preflight.passed report);
            check_int "capacity" 2 (Sbx.Pool.capacity pool);
            (match Sbx.Pool.preflight_report pool with
            | None -> Alcotest.fail "no preflight attached to the pool"
            | Some attached ->
                check_str "attached report is the gating report"
                  (Sbx.Preflight.render report)
                  (Sbx.Preflight.render attached)));
    test "one missed trap fails pool construction closed" (fun () ->
        with_plans [ F.plan ~nth:1 F.Preflight_trap_miss F.Raise ] (fun () ->
            match Sbx.Sfi.create_pool () with
            | Ok _ -> Alcotest.fail "pool constructed despite a missed trap"
            | Error report ->
                check_bool "failed" false (Sbx.Preflight.passed report);
                (match Sbx.Preflight.missed report with
                | [ c ] ->
                    check_bool "the missed check says why" true
                      (match c.outcome with
                      | Sbx.Preflight.Missed why -> contains why "injected"
                      | Sbx.Preflight.Caught -> false)
                | missed ->
                    Alcotest.failf "expected exactly one missed check, got %d"
                      (List.length missed))));
    test "a build missing every trap misses every check" (fun () ->
        with_plans [ F.plan ~nth:0 F.Preflight_trap_miss F.Raise ] (fun () ->
            let report = Sbx.Sfi.run () in
            check_bool "failed" false (Sbx.Preflight.passed report);
            check_int "all missed" battery_size
              (List.length (Sbx.Preflight.missed report))));
    test "transient confirmation faults are no softer" (fun () ->
        with_plans [ F.plan ~nth:0 F.Preflight_trap_miss F.Exhaust ] (fun () ->
            match Sbx.Sfi.create_pool () with
            | Ok _ -> Alcotest.fail "pool constructed despite missed traps"
            | Error report -> check_bool "failed" false (Sbx.Preflight.passed report)));
  ]

(* ------------------------------------------------------------------ *)
(* Quotas: books are exact and refusals are structured. *)

let charge q key = Sbx.Quota.account q ~key ~trapped:false ~fuel:1 ~wall_s:0.0 ~mem_bytes:64

let quota_tests =
  [
    test "deny policy refuses the (n+1)th run and counts refusals" (fun () ->
        let q = Sbx.Quota.create ~limits:(Sbx.Quota.limits ~max_runs:3 ()) () in
        for i = 1 to 5 do
          match Sbx.Quota.admit q ~key:"r" with
          | Sbx.Quota.Admit ->
              check_bool "admitted within the allowance" true (i <= 3);
              charge q "r"
          | Sbx.Quota.Deny_quota { breached } ->
              check_bool "denied past the allowance" true (i > 3);
              check_str "names the breached limit" "runs" breached
        done;
        match Sbx.Quota.counters_for q ~key:"r" with
        | None -> Alcotest.fail "no books for the hammered region"
        | Some c ->
            check_int "runs" 3 c.Sbx.Quota.runs;
            check_int "denied" 2 c.Sbx.Quota.denied;
            check_int "fuel" 3 c.Sbx.Quota.fuel);
    test "trap and fuel ceilings breach independently of runs" (fun () ->
        let q = Sbx.Quota.create ~limits:(Sbx.Quota.limits ~max_traps:1 ~max_fuel:100 ()) () in
        Sbx.Quota.account q ~key:"trappy" ~trapped:true ~fuel:1 ~wall_s:0.0 ~mem_bytes:0;
        (match Sbx.Quota.admit q ~key:"trappy" with
        | Sbx.Quota.Deny_quota { breached } -> check_str "breached" "traps" breached
        | other -> Alcotest.fail (Sbx.Quota.admission_message other));
        Sbx.Quota.account q ~key:"burny" ~trapped:false ~fuel:150 ~wall_s:0.0 ~mem_bytes:0;
        match Sbx.Quota.admit q ~key:"burny" with
        | Sbx.Quota.Deny_quota { breached } -> check_str "breached" "fuel" breached
        | other -> Alcotest.fail (Sbx.Quota.admission_message other));
    test "concurrent hammer keeps exact books under contention" (fun () ->
        let domains = 4 and per_domain = 2_000 in
        let allowance = domains * per_domain / 2 in
        let q = Sbx.Quota.create ~limits:(Sbx.Quota.limits ~max_runs:allowance ()) () in
        let admitted = Atomic.make 0 in
        let refused = Atomic.make 0 in
        (* Alcotest's checks are not domain-safe: workers only count. *)
        let mislabeled = Atomic.make 0 and starved = Atomic.make 0 in
        (* A start line, so the domains run their loops at the same time
           instead of one after another as they spawn. *)
        let ready = Atomic.make 0 in
        let worker () =
          Atomic.incr ready;
          while Atomic.get ready < domains do
            Domain.cpu_relax ()
          done;
          for i = 1 to per_domain do
            (match Sbx.Quota.admit q ~key:"offender" with
            | Sbx.Quota.Admit ->
                Atomic.incr admitted;
                Sbx.Quota.account q ~key:"offender" ~trapped:false ~fuel:1 ~wall_s:0.0
                  ~mem_bytes:64
            | Sbx.Quota.Deny_quota { breached } ->
                if breached <> "runs" then Atomic.incr mislabeled;
                Atomic.incr refused);
            if i mod 2 = 0 then
              match Sbx.Quota.admit q ~key:"bystander" with
              | Sbx.Quota.Admit ->
                  Sbx.Quota.account q ~key:"bystander" ~trapped:false ~fuel:2 ~wall_s:0.0
                    ~mem_bytes:32
              | Sbx.Quota.Deny_quota _ -> Atomic.incr starved
          done
        in
        Array.iter Domain.join (Array.init domains (fun _ -> Domain.spawn worker));
        let admitted = Atomic.get admitted and refused = Atomic.get refused in
        check_int "every admission resolved" (domains * per_domain) (admitted + refused);
        check_int "every refusal names the runs limit" 0 (Atomic.get mislabeled);
        check_int "the bystander is never refused" 0 (Atomic.get starved);
        (* A refusal needs [allowance] charged runs, so the allowance is
           always reached. Admission and charge are two steps, so each
           other domain can hold at most one admitted, not yet charged
           run when the books read [allowance - 1]: the overshoot is
           bounded by [domains - 1]. *)
        check_bool "the allowance was reached" true (admitted >= allowance);
        check_bool "overshoot bounded by the racing domains" true
          (admitted <= allowance + domains - 1);
        (match Sbx.Quota.counters_for q ~key:"offender" with
        | None -> Alcotest.fail "no offender books"
        | Some c ->
            (* Books must match what the domains actually did — no lost
               increments, no double charges. *)
            check_int "runs = admitted" admitted c.Sbx.Quota.runs;
            check_int "fuel = one per run" admitted c.Sbx.Quota.fuel;
            check_int "denied = refused" refused c.Sbx.Quota.denied;
            check_int "peak memory" 64 c.Sbx.Quota.peak_mem_bytes);
        (match Sbx.Quota.counters_for q ~key:"bystander" with
        | None -> Alcotest.fail "no bystander books"
        | Some c ->
            check_int "bystander runs" (domains * per_domain / 2) c.Sbx.Quota.runs;
            check_int "bystander fuel" (domains * per_domain) c.Sbx.Quota.fuel;
            check_int "bystander never denied" 0 c.Sbx.Quota.denied);
        let totals = Sbx.Quota.totals q in
        check_int "totals sum across regions"
          (admitted + (domains * per_domain / 2))
          totals.Sbx.Quota.runs;
        check_int "totals sum refusals" refused totals.Sbx.Quota.denied;
        check_int "snapshot lists both regions" 2 (List.length (Sbx.Quota.snapshot q)));
  ]

(* ------------------------------------------------------------------ *)
(* The attestation log. *)

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sesame-hardening-%d-%d.attest" (Unix.getpid ()) !counter)
    in
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".lock" ];
    path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The offsets of a log's whole frames: an 8-byte magic, then frames of
   a little-endian u32 payload length, a CRC and the payload. *)
let frame_offsets log =
  let rec go pos acc =
    if pos + 8 > String.length log then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le log pos) land 0xFFFFFFFF in
      if pos + 8 + len > String.length log then List.rev acc else go (pos + 8 + len) (pos :: acc)
  in
  go 8 []

let body_a = Sign.Sha256.digest_string "sandboxed body A"
let body_b = Sign.Sha256.digest_string "sandboxed body B"

let approve r hash =
  Sign.Attest.append_approval r ~kind:"sandboxed" ~body_hash:hash ~verdict:"leakage-free:v1"

let record_run r hash =
  Sign.Attest.append_run r ~region:"test::region" ~body_hash:hash ~verdict:"leakage-free:v1"
    ~budgets:"fuel=1000 deadline=1s" ~outcome:"ok" ~quota:"fresh" ~preflight:"none"

let attest_tests =
  [
    test "round-trip: approvals then runs verify clean" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r body_a);
        ok_or_fail (approve r body_b);
        ok_or_fail (record_run r body_a);
        ok_or_fail (record_run r body_a);
        ok_or_fail (record_run r body_b);
        Sign.Attest.close_recorder r;
        let s = ok_or_fail (Sign.Attest.verify path) in
        check_int "approvals" 2 s.Sign.Attest.approvals;
        check_int "runs" 3 s.Sign.Attest.runs;
        check_int "distinct bodies" 2 s.Sign.Attest.distinct_bodies;
        check_bool "no torn tail" false s.Sign.Attest.torn_tail;
        (* The raw frames replay in append order. *)
        match ok_or_fail (Sign.Attest.frames path) with
        | [ Sign.Attest.Approval a; Approval _; Run m1; Run m2; Run _ ] ->
            check_str "approval hash" (Sign.Sha256.to_hex body_a)
              (Sign.Sha256.to_hex a.Sign.Attest.body_hash);
            check_bool "run sequence increases" true
              (m2.Sign.Attest.seq > m1.Sign.Attest.seq)
        | frames -> Alcotest.failf "unexpected frame shape (%d frames)" (List.length frames));
    test "a run with no approving verdict is rejected" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (record_run r body_a);
        Sign.Attest.close_recorder r;
        match Sign.Attest.verify path with
        | Ok _ -> Alcotest.fail "verified a log with an unapproved run"
        | Error m -> check_bool "names the missing approval" true (contains m "approv"));
    test "approval must precede the run, not follow it" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (record_run r body_a);
        ok_or_fail (approve r body_a);
        Sign.Attest.close_recorder r;
        check_bool "rejected" true (Result.is_error (Sign.Attest.verify path)));
    test "a flipped byte in a non-trailing frame fails verification" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r body_a);
        ok_or_fail (record_run r body_a);
        Sign.Attest.close_recorder r;
        let contents = Bytes.of_string (read_file path) in
        (* Magic is 8 bytes, the frame header 8 more: offset 20 lands
           inside the first frame's payload. *)
        Bytes.set contents 20 (Char.chr (Char.code (Bytes.get contents 20) lxor 0x01));
        write_file path (Bytes.to_string contents);
        match Sign.Attest.verify path with
        | Ok _ -> Alcotest.fail "verified a tampered log"
        | Error m -> check_bool "CRC caught it" true (contains m "CRC"));
    test "a torn trailing frame is tolerated and flagged" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r body_a);
        ok_or_fail (record_run r body_a);
        Sign.Attest.close_recorder r;
        let contents = read_file path in
        write_file path (String.sub contents 0 (String.length contents - 3));
        let s = ok_or_fail (Sign.Attest.verify path) in
        check_bool "torn tail reported" true s.Sign.Attest.torn_tail;
        check_int "the torn run frame is ignored" 0 s.Sign.Attest.runs;
        check_int "the intact approval survives" 1 s.Sign.Attest.approvals);
    test "the next recorder cuts a torn tail before it appends" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r body_a);
        ok_or_fail (record_run r body_a);
        Sign.Attest.close_recorder r;
        let contents = read_file path in
        let torn = String.length contents - 3 in
        write_file path (String.sub contents 0 torn);
        let warned = ref [] in
        let warn m = warned := m :: !warned in
        let r2 = ok_or_fail (Sign.Attest.create_recorder ~warn path) in
        ok_or_fail (approve r2 body_b);
        ok_or_fail (record_run r2 body_b);
        Sign.Attest.close_recorder r2;
        (match (!warned, List.rev (frame_offsets contents)) with
        | [ m ], last :: _ ->
            check_bool "the warning counts the torn frame's bytes" true
              (contains m (Printf.sprintf "of %d bytes at offset %d" (torn - last) last))
        | ws, _ -> Alcotest.failf "expected one warning, got %d" (List.length ws));
        let s = ok_or_fail (Sign.Attest.verify path) in
        check_bool "no torn tail left" false s.Sign.Attest.torn_tail;
        check_int "both sessions' approvals" 2 s.Sign.Attest.approvals;
        check_int "the torn run is gone, the new one verifies" 1 s.Sign.Attest.runs);
    test "a corrupt length mid-log is cut as a tear, and the cut is reported" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r body_a);
        ok_or_fail (record_run r body_a);
        ok_or_fail (approve r body_b);
        Sign.Attest.close_recorder r;
        let contents = Bytes.of_string (read_file path) in
        let second = List.nth (frame_offsets (Bytes.to_string contents)) 1 in
        (* The length's top byte: the frame now claims more bytes than
           the file holds, which a scan cannot tell from a crashed
           append. *)
        Bytes.set contents (second + 3) '\x40';
        write_file path (Bytes.to_string contents);
        let warned = ref [] in
        let r2 = ok_or_fail (Sign.Attest.create_recorder ~warn:(fun m -> warned := m :: !warned) path) in
        Sign.Attest.close_recorder r2;
        (match !warned with
        | [ m ] ->
            check_bool "the warning counts both later frames" true
              (contains m
                 (Printf.sprintf "of %d bytes at offset %d" (Bytes.length contents - second) second))
        | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws));
        let s = ok_or_fail (Sign.Attest.verify path) in
        check_int "only the first frame is left" 1 s.Sign.Attest.approvals;
        check_int "no run is left" 0 s.Sign.Attest.runs);
    test "a recorder refuses a log with a corrupt whole frame" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r body_a);
        ok_or_fail (record_run r body_a);
        Sign.Attest.close_recorder r;
        let contents = Bytes.of_string (read_file path) in
        Bytes.set contents 20 (Char.chr (Char.code (Bytes.get contents 20) lxor 0x01));
        write_file path (Bytes.to_string contents);
        match Sign.Attest.create_recorder path with
        | Ok r2 ->
            Sign.Attest.close_recorder r2;
            Alcotest.fail "opened a recorder behind mid-log corruption"
        | Error m -> check_bool "names the CRC" true (contains m "CRC"));
    test "the wrong secret fails every signature" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r body_a);
        Sign.Attest.close_recorder r;
        match Sign.Attest.verify ~secret:"not-the-attestor-secret" path with
        | Ok _ -> Alcotest.fail "verified under the wrong secret"
        | Error m -> check_bool "signature error" true (contains m "signature"));
    test "reopening appends instead of clobbering" (fun () ->
        let path = tmp_path () in
        let r1 = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (approve r1 body_a);
        Sign.Attest.close_recorder r1;
        let r2 = ok_or_fail (Sign.Attest.create_recorder path) in
        ok_or_fail (record_run r2 body_a);
        Sign.Attest.close_recorder r2;
        let s = ok_or_fail (Sign.Attest.verify path) in
        check_int "approvals" 1 s.Sign.Attest.approvals;
        check_int "runs" 1 s.Sign.Attest.runs);
    test "the log lock refuses a second live recorder" (fun () ->
        let path = tmp_path () in
        let r = ok_or_fail (Sign.Attest.create_recorder path) in
        check_bool "second recorder refused" true
          (Result.is_error (Sign.Attest.create_recorder path));
        Sign.Attest.close_recorder r;
        let r2 = ok_or_fail (Sign.Attest.create_recorder path) in
        Sign.Attest.close_recorder r2);
  ]

(* ------------------------------------------------------------------ *)
(* Stale-lock handling in File_lock. *)

module Lock = Sign.Lockfile.File_lock

let lock_tests =
  [
    test "acquire, refuse a live holder, release, reacquire" (fun () ->
        let path = tmp_path () in
        let held = ok_or_fail (Result.map_error Lock.error_message (Lock.acquire path)) in
        (match Lock.acquire path with
        | Ok _ -> Alcotest.fail "double acquire"
        | Error (Lock.Held { pid; _ }) -> check_int "held by us" (Unix.getpid ()) pid
        | Error (Lock.Io m) -> Alcotest.fail m);
        Lock.release held;
        Lock.release held;
        (* idempotent *)
        let again = ok_or_fail (Result.map_error Lock.error_message (Lock.acquire path)) in
        Lock.release again);
    test "a dead holder's lock is broken with a warning" (fun () ->
        let path = tmp_path () in
        write_file path (Printf.sprintf "999999999 %.3f\n" (Unix.gettimeofday ()));
        let warned = ref "" in
        let held =
          ok_or_fail
            (Result.map_error Lock.error_message
               (Lock.acquire ~warn:(fun m -> warned := m) path))
        in
        check_bool "warned about the dead pid" true (contains !warned "dead");
        Lock.release held);
    test "a lock past the staleness bound is broken even if alive" (fun () ->
        let path = tmp_path () in
        write_file path
          (Printf.sprintf "%d %.3f\n" (Unix.getpid ()) (Unix.gettimeofday () -. 10_000.0));
        let warned = ref "" in
        let held =
          ok_or_fail
            (Result.map_error Lock.error_message
               (Lock.acquire ~stale_after_s:60.0 ~warn:(fun m -> warned := m) path))
        in
        check_bool "warned about the age" true (contains !warned "past the");
        Lock.release held);
    test "an unparsable owner file is broken, not trusted" (fun () ->
        let path = tmp_path () in
        write_file path "not a lock file at all";
        let warned = ref "" in
        let held =
          ok_or_fail
            (Result.map_error Lock.error_message
               (Lock.acquire ~warn:(fun m -> warned := m) path))
        in
        check_bool "warned" true (contains !warned "unreadable");
        Lock.release held);
    test "with_lock runs the body and frees the lock" (fun () ->
        let path = tmp_path () in
        (match Lock.with_lock path (fun () -> 41 + 1) with
        | Ok v -> check_int "body result" 42 v
        | Error e -> Alcotest.fail (Lock.error_message e));
        let held = ok_or_fail (Result.map_error Lock.error_message (Lock.acquire path)) in
        Lock.release held);
  ]

(* ------------------------------------------------------------------ *)
(* The autoscaler's floor pre-spawn: config.domains below the autoscale
   floor must come up with the difference as burst workers, serve, and
   stop cleanly. *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let source_of_fd fd =
  let buf = Bytes.create 4096 in
  Wire.source_of_fun (fun () ->
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ""
      | n -> Bytes.sub_string buf 0 n)

let http_get port target =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      let request = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" target in
      let rec write off =
        if off < String.length request then
          write (off + Unix.write_substring fd request off (String.length request - off))
      in
      write 0;
      match Wire.read_response (source_of_fd fd) with
      | `Response (status, _, body) -> (status, body)
      | `Eof -> Alcotest.fail "connection closed before a response"
      | `Error e -> Alcotest.fail (Wire.error_message e))

let wait_for ?(timeout_s = 5.0) what cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let autoscale_tests =
  [
    test "the floor pre-spawns burst workers that serve and stop" (fun () ->
        let config =
          {
            Server.default_config with
            Server.domains = 2;
            port = 0;
            autoscale =
              Some
                {
                  Server.min_domains = 4;
                  max_domains = 6;
                  interval_s = 0.005;
                  (* Pressure thresholds no quiet test will cross: this
                     test is about the floor, not demand. *)
                  queue_high = 1_000;
                  idle_samples = max_int;
                };
          }
        in
        let peak_workers = Atomic.make 0 in
        let server =
          ok_or_fail
            (Server.start ~config
               ~on_error:(fun _ -> ())
               ~on_scale:(fun ~workers ->
                 if workers > Atomic.get peak_workers then Atomic.set peak_workers workers)
               ~handler:(fun _ -> Http.Response.text "hello")
               ())
        in
        Fun.protect
          ~finally:(fun () -> Server.stop server)
          (fun () ->
            wait_for "the floor pre-spawn" (fun () ->
                (Server.stats server).Server.burst_workers = 2);
            let status, body = http_get (Server.port server) "/hi" in
            check_int "served" 200 status;
            check_str "by the handler" "hello" body;
            let stats = Server.stats server in
            check_int "floor spawn is configuration, not a scale-up" 0 stats.Server.scale_ups;
            check_int "no shrink below the floor" 0 stats.Server.scale_downs;
            check_int "on_scale saw the full worker set" 4 (Atomic.get peak_workers));
        (* stop joined the supervisor and every burst worker; the stats
           snapshot must agree. *)
        check_int "burst workers joined" 0 (Server.stats server).Server.burst_workers);
    test "without autoscale on_scale never fires" (fun () ->
        let calls = Atomic.make 0 in
        let server =
          ok_or_fail
            (Server.start
               ~config:{ Server.default_config with Server.domains = 2; port = 0 }
               ~on_error:(fun _ -> ())
               ~on_scale:(fun ~workers:_ -> Atomic.incr calls)
               ~handler:(fun _ -> Http.Response.text "ok")
               ())
        in
        Fun.protect
          ~finally:(fun () -> Server.stop server)
          (fun () ->
            let status, _ = http_get (Server.port server) "/" in
            check_int "served" 200 status);
        check_int "no scale callbacks" 0 (Atomic.get calls);
        check_int "no burst workers" 0 (Server.stats server).Server.burst_workers);
  ]

(* ------------------------------------------------------------------ *)
(* Burst workers run a request's checks as the plain sequential walk on
   their own domain: a wide conjunction served by fixed and burst
   workers alike reports the same first denial as an in-process check. *)

module Deny_at = Policy.Make (struct
  type s = int * int

  let name = "hardening::deny_at"
  let check (i, deny) _ = i <> deny
  let join = None
  let no_folding = true
  let describe (i, _) = "Leaf " ^ string_of_int i
end)

let burst_handler_tests =
  [
    test "burst workers serve wide checks with the in-process verdict" (fun () ->
        let width = 200 and deny = 137 in
        let conj = Policy.conjoin_all (List.init width (fun i -> Deny_at.make (i, deny))) in
        let ctx = Mock.context ~user:"student0@school.edu" () in
        let expected =
          match Policy.check_verbose conj ctx with
          | Ok () -> Alcotest.fail "the reference check allowed"
          | Error msg -> msg
        in
        let config =
          {
            Server.default_config with
            Server.domains = 1;
            port = 0;
            autoscale =
              Some
                {
                  Server.min_domains = 3;
                  max_domains = 3;
                  interval_s = 0.005;
                  queue_high = 1_000;
                  idle_samples = max_int;
                };
          }
        in
        let server =
          ok_or_fail
            (Server.start ~config
               ~on_error:(fun _ -> ())
               ~handler:(fun _ ->
                 match Enforce.check_verbose conj ctx with
                 | Ok () -> Http.Response.text "allowed"
                 | Error msg -> Http.Response.text msg)
               ())
        in
        Fun.protect
          ~finally:(fun () -> Server.stop server)
          (fun () ->
            wait_for "the floor pre-spawn" (fun () ->
                (Server.stats server).Server.burst_workers = 2);
            let port = Server.port server in
            let clients =
              List.init 3 (fun _ ->
                  Domain.spawn (fun () -> List.init 8 (fun _ -> http_get port "/check")))
            in
            List.iter
              (fun (status, body) ->
                check_int "served" 200 status;
                check_str "same first denial" expected body)
              (List.concat_map Domain.join clients);
            check_int "every request answered" 24 (Server.stats server).Server.served));
  ]

(* ------------------------------------------------------------------ *)
(* The hardened application: quota exhaustion must degrade only the
   offending region, and attested instances must verify end to end. *)

let req ?(cookies = "") ?(body = "") meth target =
  Http.Request.make
    ~headers:
      (Http.Headers.of_list
         [ ("Cookie", cookies); ("Content-Type", "application/x-www-form-urlencoded") ])
    ~body meth target

let status r = Http.Status.to_int r.Http.Response.status
let resp_body r = r.Http.Response.body

let hardened_app ?quota_limits () =
  let hardening =
    ok_or_fail (Apps.Websubmit.harden ~pool_capacity:2 ?quota_limits ())
  in
  let app = ok_or_fail (Apps.Websubmit.create ~hardening ()) in
  ok_or_fail (Apps.Websubmit.seed app ~students:4 ~questions:2);
  Apps.Email.clear_outbox ();
  (app, hardening)

let register app n =
  Apps.Websubmit.handle app
    (req ~body:(Printf.sprintf "email=quota%d%%40example.org&apikey=k-%d" n n)
       Http.Meth.POST "/register")

let hardened_app_tests =
  [
    test "quota exhaustion degrades only the offending region" (fun () ->
        let app, hardening =
          hardened_app ~quota_limits:(Sbx.Quota.limits ~max_runs:3 ()) ()
        in
        let hash_region = Apps.Websubmit.sandbox_hash_region app in
        let base =
          match Region.Sandboxed.quota_counters hash_region with
          | Some c -> c.Sbx.Quota.runs
          | None -> 0
        in
        let allowance = 3 - base in
        for n = 1 to allowance do
          check_int (Printf.sprintf "register %d admitted" n) 201 (status (register app n))
        done;
        (* Past the allowance: structured 503s, no sandbox detail, no
           stored data. *)
        for n = allowance + 1 to allowance + 2 do
          let r = register app n in
          check_int (Printf.sprintf "register %d shed" n) 503 (status r);
          check_bool "names no internals" false (contains (resp_body r) "quota");
          check_bool "leaks nothing" false (contains (resp_body r) "school.edu")
        done;
        (match Region.Sandboxed.quota_counters hash_region with
        | None -> Alcotest.fail "hash region has no books"
        | Some c ->
            check_int "runs stopped at the allowance" 3 c.Sbx.Quota.runs;
            check_int "refusals counted" 2 c.Sbx.Quota.denied);
        (* Every endpoint that never crosses the exhausted region keeps
           working: the regression is contained. *)
        let view =
          Apps.Websubmit.handle app
            (req ~cookies:"user=student0@school.edu" Http.Meth.GET "/view/1")
        in
        check_int "unrelated endpoint unaffected" 200 (status view);
        (* The training region shares the quota but not the key: its
           books show no denials. *)
        match Region.Sandboxed.quota_counters (Apps.Websubmit.sandbox_train_region app) with
        | Some c -> check_int "train region undenied" 0 c.Sbx.Quota.denied
        | None -> ();
        ignore hardening);
    test "an attested instance verifies end to end" (fun () ->
        let path = tmp_path () in
        let recorder = ok_or_fail (Sign.Attest.create_recorder path) in
        Sign.Attest.install recorder;
        Fun.protect
          ~finally:(fun () ->
            Sign.Attest.uninstall ();
            Sign.Attest.close_recorder recorder)
          (fun () ->
            let app, _ = hardened_app () in
            check_int "first register" 201 (status (register app 101));
            check_int "second register" 201 (status (register app 102)));
        let s = ok_or_fail (Sign.Attest.verify path) in
        check_bool "installation approvals recorded" true (s.Sign.Attest.approvals >= 2);
        check_bool "runs recorded" true (s.Sign.Attest.runs >= 2);
        check_bool "no torn tail" false s.Sign.Attest.torn_tail);
  ]

let () =
  Alcotest.run "hardening"
    [
      ("preflight", preflight_tests);
      ("quota", quota_tests);
      ("attest", attest_tests);
      ("lockfile", lock_tests);
      ("autoscale", autoscale_tests);
      ("burst-handlers", burst_handler_tests);
      ("hardened-app", hardened_app_tests);
    ]
