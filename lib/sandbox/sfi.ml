(* The boot-time SFI preflight battery.

   Each check provokes one deliberate violation — out-of-bounds access,
   heap exhaustion, fuel burn, deadline overrun, memory breach, a
   forbidden syscall — on a scratch capacity-1 pool and confirms the trap
   was caught AND the hosting arena quarantined. A build on which any
   check misses must not run regions: [create_pool] fails closed, like a
   container launcher that can't get seccomp. *)

let now () = Sesame_clock.now_s ()

(* Hard wall on any single check: a build whose deadline machinery is
   broken must surface as Missed, never as a hung boot. *)
let check_wall_s = 0.5

type verdict = Confirmed | Failed of string

let confirmed_if cond why = if cond then Confirmed else Failed why

(* Run one guest under [budget] on its own capacity-1 pool and hand the
   outcome plus pool stats to [judge]. *)
let probe ~arena_size ?budget ~input ~f judge =
  let pool = Pool.create ~capacity:1 ~arena_size () in
  let config = Runtime.config ~mode:(Runtime.Pooled pool) ~slowdown:1.0 ~arena_size ?budget () in
  let outcome = Runtime.run config ~input ~f in
  judge outcome (Pool.stats pool)

let quarantined (s : Pool.stats) why =
  if s.poisoned = 1 && s.replaced = 1 then Confirmed
  else Failed (Printf.sprintf "%s, but the arena was not quarantined" why)

let expect_trap ~name outcome (stats : Pool.stats) ~matches =
  match (outcome : Runtime.outcome).status with
  | Runtime.Ok _ -> Failed (Printf.sprintf "%s completed instead of trapping" name)
  | Runtime.Trapped trap ->
      if matches trap then quarantined stats "trapped"
      else Failed (Printf.sprintf "wrong trap: %s" (Runtime.trap_message trap))

(* --- the battery ------------------------------------------------------- *)

let check_oob_read ~arena_size () =
  let arena = Arena.create ~size:arena_size () in
  match Arena.read_u8 arena (arena_size + 64) with
  | (_ : int) -> Failed "out-of-bounds read returned data"
  | exception Arena.Sandbox_trap _ -> Confirmed
  | exception exn -> Failed (Printf.sprintf "wrong exception: %s" (Printexc.to_string exn))

let check_oob_write ~arena_size () =
  let arena = Arena.create ~size:arena_size () in
  match Arena.write_u8 arena (arena_size + 64) 0xAA with
  | () -> Failed "out-of-bounds write succeeded"
  | exception Arena.Sandbox_trap _ -> Confirmed
  | exception exn -> Failed (Printf.sprintf "wrong exception: %s" (Printexc.to_string exn))

let check_heap_exhaustion ~arena_size:_ () =
  (* A deliberately tiny arena (8 KiB leaves 4 KiB of heap after the
     globals segment): the guest's output cannot fit, so the copy-out
     allocation must trap as SFI heap exhaustion. *)
  probe ~arena_size:8192 ~input:Value.Unit
    ~f:(fun _ -> Value.Str (String.make 16384 'x'))
    (fun outcome stats ->
      expect_trap ~name:"heap exhaustion" outcome stats ~matches:(function
        | Runtime.Sandbox_fault _ -> true
        | _ -> false))

let check_fuel_exhaustion ~arena_size () =
  probe ~arena_size
    ~budget:(Runtime.budget ~fuel:4 ())
    ~input:Value.Unit
    ~f:(fun _ ->
      for _ = 1 to 64 do
        Runtime.tick ()
      done;
      Value.Unit)
    (fun outcome stats ->
      expect_trap ~name:"fuel exhaustion" outcome stats ~matches:(function
        | Runtime.Fuel_exhausted _ -> true
        | _ -> false))

let check_deadline_overrun ~arena_size () =
  probe ~arena_size
    ~budget:(Runtime.budget ~deadline_s:0.002 ())
    ~input:Value.Unit
    ~f:(fun _ ->
      (* Spin past the deadline, ticking so the runtime can interrupt;
         bail on wall-clock so a broken build fails the check rather
         than hanging the boot. *)
      let bail = now () +. check_wall_s in
      while now () < bail do
        Runtime.tick ()
      done;
      Value.Unit)
    (fun outcome stats ->
      expect_trap ~name:"deadline overrun" outcome stats ~matches:(function
        | Runtime.Deadline_exceeded _ -> true
        | _ -> false))

let check_memory_breach ~arena_size () =
  probe ~arena_size
    ~budget:(Runtime.budget ~mem_bytes:1024 ())
    ~input:(Value.Str (String.make 8192 'm'))
    ~f:(fun v -> v)
    (fun outcome stats ->
      expect_trap ~name:"memory breach" outcome stats ~matches:(function
        | Runtime.Memory_exceeded _ -> true
        | _ -> false))

let check_blocked_syscall ~arena_size () =
  probe ~arena_size ~input:Value.Unit
    ~f:(fun _ ->
      Runtime.guard_syscall "preflight-syscall-stub";
      Value.Unit)
    (fun outcome stats ->
      expect_trap ~name:"blocked syscall" outcome stats ~matches:(function
        | Runtime.Syscall_blocked _ -> true
        | _ -> false))

let check_wipe_hygiene ~arena_size () =
  (* A secret written by one invocation must be unreadable by the next
     user of the same pooled arena. *)
  let pool = Pool.create ~capacity:1 ~arena_size () in
  let secret = "PREFLIGHT-SECRET-0xS3" in
  let a = Pool.acquire pool in
  let addr = Arena.alloc a (String.length secret) in
  Arena.write_bytes a addr secret;
  Pool.release pool a;
  let b = Pool.acquire pool in
  let addr' = Arena.alloc b (String.length secret) in
  let residue = Arena.read_bytes b addr' (String.length secret) in
  confirmed_if
    (addr' = addr && residue <> secret && String.for_all (fun c -> c = '\000') residue)
    "released arena still held guest residue"

let check_quarantine_replacement ~arena_size () =
  probe ~arena_size ~input:Value.Unit
    ~f:(fun _ -> failwith "deliberate preflight trap")
    (fun outcome stats ->
      match (outcome : Runtime.outcome).status with
      | Runtime.Trapped (Runtime.Guest_exception _) ->
          if stats.poisoned = 1 && stats.replaced = 1 && stats.free = 1 then Confirmed
          else Failed "trapped arena was not replaced by a clean one"
      | Runtime.Trapped trap -> Failed (Printf.sprintf "wrong trap: %s" (Runtime.trap_message trap))
      | Runtime.Ok _ -> Failed "guest exception did not trap")

let battery =
  [
    ("sfi-oob-read", "out-of-bounds arena read raises Sandbox_trap", check_oob_read);
    ("sfi-oob-write", "out-of-bounds arena write raises Sandbox_trap", check_oob_write);
    ("heap-exhaustion", "oversized guest output traps and quarantines", check_heap_exhaustion);
    ("fuel-exhaustion", "guest past its fuel budget traps and quarantines", check_fuel_exhaustion);
    ( "deadline-overrun",
      "guest past its wall-clock deadline traps and quarantines",
      check_deadline_overrun );
    ("memory-breach", "arena high-water past the budget traps and quarantines", check_memory_breach);
    ("blocked-syscall", "syscall stub inside the guest traps and quarantines", check_blocked_syscall);
    ("wipe-hygiene", "pooled arena reuse exposes no prior guest residue", check_wipe_hygiene);
    ( "quarantine-replacement",
      "poisoned arena is dropped and replaced, pool stays healthy",
      check_quarantine_replacement );
  ]

let run_check ~arena_size (name, detail, f) =
  let t0 = now () in
  let outcome =
    match
      let verdict = f ~arena_size () in
      (* The confirmation seam: a fault here models a build on which the
         deliberate trap was not actually observed. *)
      Sesame_faults.hit Sesame_faults.Preflight_trap_miss;
      verdict
    with
    | Confirmed -> Preflight.Caught
    | Failed why -> Preflight.Missed why
    | exception Sesame_faults.Injected _ ->
        Preflight.Missed "trap confirmation failed (injected)"
    | exception exn ->
        Preflight.Missed (Printf.sprintf "check crashed: %s" (Printexc.to_string exn))
  in
  { Preflight.name; detail; outcome; elapsed_s = now () -. t0 }

let run ?(arena_size = 64 * 1024) () =
  let at_s = now () in
  let checks = List.map (run_check ~arena_size) battery in
  { Preflight.checks; arena_size; at_s; total_s = now () -. at_s }

let create_pool ?capacity ?max_capacity ?arena_size () =
  let report = run ?arena_size () in
  if Preflight.passed report then begin
    let pool = Pool.create ?capacity ?max_capacity ?arena_size () in
    Pool.attach_preflight pool report;
    Ok (pool, report)
  end
  else Error report
