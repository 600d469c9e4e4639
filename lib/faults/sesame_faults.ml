type point =
  | Arena_alloc
  | Copier_encode
  | Copier_decode
  | Guest_body
  | Db_query
  | Policy_check
  | Template_render
  | Db_wal_append
  | Db_wal_fsync
  | Db_checkpoint_write
  | Db_checkpoint_rename
  | Preflight_trap_miss
  | Quota_account
  | Attest_append
  | Attest_fsync
  | Db_scan_cancel
  | Wal_commit_deadline
  | Brownout_enter
  | Brownout_exit

let all_points =
  [
    Arena_alloc;
    Copier_encode;
    Copier_decode;
    Guest_body;
    Db_query;
    Policy_check;
    Template_render;
    Db_wal_append;
    Db_wal_fsync;
    Db_checkpoint_write;
    Db_checkpoint_rename;
    Preflight_trap_miss;
    Quota_account;
    Attest_append;
    Attest_fsync;
    Db_scan_cancel;
    Wal_commit_deadline;
    Brownout_enter;
    Brownout_exit;
  ]

let point_index = function
  | Arena_alloc -> 0
  | Copier_encode -> 1
  | Copier_decode -> 2
  | Guest_body -> 3
  | Db_query -> 4
  | Policy_check -> 5
  | Template_render -> 6
  | Db_wal_append -> 7
  | Db_wal_fsync -> 8
  | Db_checkpoint_write -> 9
  | Db_checkpoint_rename -> 10
  | Preflight_trap_miss -> 11
  | Quota_account -> 12
  | Attest_append -> 13
  | Attest_fsync -> 14
  | Db_scan_cancel -> 15
  | Wal_commit_deadline -> 16
  | Brownout_enter -> 17
  | Brownout_exit -> 18

let n_points = 19

let point_name = function
  | Arena_alloc -> "arena-alloc"
  | Copier_encode -> "copier-encode"
  | Copier_decode -> "copier-decode"
  | Guest_body -> "guest-body"
  | Db_query -> "db-query"
  | Policy_check -> "policy-check"
  | Template_render -> "template-render"
  | Db_wal_append -> "db-wal-append"
  | Db_wal_fsync -> "db-wal-fsync"
  | Db_checkpoint_write -> "db-checkpoint-write"
  | Db_checkpoint_rename -> "db-checkpoint-rename"
  | Preflight_trap_miss -> "preflight-trap-miss"
  | Quota_account -> "quota-account"
  | Attest_append -> "attest-append"
  | Attest_fsync -> "attest-fsync"
  | Db_scan_cancel -> "db-scan-cancel"
  | Wal_commit_deadline -> "wal-commit-deadline"
  | Brownout_enter -> "brownout-enter"
  | Brownout_exit -> "brownout-exit"

let point_of_string s =
  List.find_opt (fun p -> point_name p = s) all_points

type action = Raise | Corrupt | Delay of int | Exhaust

let action_name = function
  | Raise -> "raise"
  | Corrupt -> "corrupt"
  | Delay ns -> Printf.sprintf "delay:%d" ns
  | Exhaust -> "exhaust"

let action_of_string s =
  match s with
  | "raise" -> Some Raise
  | "corrupt" -> Some Corrupt
  | "exhaust" -> Some Exhaust
  | "delay" -> Some (Delay 1_000_000)
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "delay" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some ns when ns >= 0 -> Some (Delay ns)
          | _ -> None)
      | _ -> None)

exception Injected of { point : point; action : action; transient : bool }

let injected_message point action =
  Printf.sprintf "injected fault at %s (%s)" (point_name point) (action_name action)

type plan = { point : point; action : action; nth : int }

let plan ?(nth = 1) point action = { point; action; nth }

(* Disarmed is the production configuration, so [hit] must stay a single
   load-and-branch in that case: one mutable bool guards everything. *)
let enabled = ref false
let plans : plan list ref = ref []
let counters = Array.make n_points 0
let corrupt_flags = Array.make n_points false
let rng = ref (Random.State.make [| 1742 |])

let reset_counters () =
  Array.fill counters 0 n_points 0;
  Array.fill corrupt_flags 0 n_points false

let arm ?(seed = 1742) ps =
  reset_counters ();
  plans := ps;
  rng := Random.State.make [| seed |];
  enabled := ps <> []

let disarm () =
  reset_counters ();
  plans := [];
  enabled := false

let armed () = !enabled

let busy_wait_ns ns =
  if ns > 0 then begin
    let deadline = Int64.add (Sesame_clock.now_ns ()) (Int64.of_int ns) in
    while Sesame_clock.now_ns () < deadline do
      ignore (Sys.opaque_identity ())
    done
  end

let fire ~corruptible point p =
  match p.action with
  | Raise -> raise (Injected { point; action = Raise; transient = false })
  | Exhaust -> raise (Injected { point; action = Exhaust; transient = true })
  | Delay ns -> busy_wait_ns ns
  | Corrupt ->
      if corruptible then corrupt_flags.(point_index point) <- true
      else raise (Injected { point; action = Corrupt; transient = false })

let hit ?(corruptible = false) point =
  if !enabled then begin
    let i = point_index point in
    counters.(i) <- counters.(i) + 1;
    corrupt_flags.(i) <- false;
    let n = counters.(i) in
    List.iter
      (fun p -> if p.point = point && (p.nth = 0 || p.nth = n) then fire ~corruptible point p)
      !plans
  end

let corrupting point = !enabled && corrupt_flags.(point_index point)

let corrupt_string point s =
  if corrupting point && String.length s > 0 then begin
    let b = Bytes.of_string s in
    let i = Random.State.int !rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xA5));
    Bytes.to_string b
  end
  else s

let hits point = counters.(point_index point)
