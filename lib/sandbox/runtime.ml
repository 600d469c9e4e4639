exception Forbidden_syscall of string

type mode = Naive | Pooled of Pool.t

type budget = {
  deadline_s : float option;
  fuel : int option;
  mem_bytes : int option;
}

let no_budget = { deadline_s = None; fuel = None; mem_bytes = None }

let budget ?deadline_s ?fuel ?mem_bytes () = { deadline_s; fuel; mem_bytes }

type config = {
  mode : mode;
  strategy : Copier.strategy;
  slowdown : float;
  arena_size : int;
  budget : budget;
}

let config ?mode ?(strategy = Copier.Swizzle) ?(slowdown = 2.0) ?(arena_size = 4 * 1024 * 1024)
    ?(budget = no_budget) () =
  let mode = match mode with Some m -> m | None -> Pooled (Pool.create ~arena_size ()) in
  { mode; strategy; slowdown; arena_size; budget }

let default_config = config ()

type timings = {
  setup_s : float;
  copy_in_s : float;
  exec_s : float;
  copy_out_s : float;
  teardown_s : float;
}

let total_s t = t.setup_s +. t.copy_in_s +. t.exec_s +. t.copy_out_s +. t.teardown_s

type trap =
  | Guest_exception of string
  | Syscall_blocked of string
  | Sandbox_fault of string
  | Fault_injected of string
  | Deadline_exceeded of { limit_s : float }
  | Fuel_exhausted of { limit : int }
  | Memory_exceeded of { used_bytes : int; limit_bytes : int }

let trap_message = function
  | Guest_exception exn -> Printf.sprintf "guest raised: %s" exn
  | Syscall_blocked what -> Printf.sprintf "guest attempted a forbidden syscall: %s" what
  | Sandbox_fault msg -> Printf.sprintf "sandbox fault: %s" msg
  | Fault_injected msg -> Printf.sprintf "sandbox fault: %s" msg
  | Deadline_exceeded { limit_s } ->
      Printf.sprintf "guest exceeded its %.3fs deadline" limit_s
  | Fuel_exhausted { limit } -> Printf.sprintf "guest exhausted its fuel budget (%d ticks)" limit
  | Memory_exceeded { used_bytes; limit_bytes } ->
      Printf.sprintf "guest exceeded its memory budget (%d > %d bytes)" used_bytes
        limit_bytes

let pp_trap fmt t = Format.pp_print_string fmt (trap_message t)

type status = Ok of Value.t | Trapped of trap

(** What the run actually consumed — the quota layer charges these
    against the region's cumulative allowance. *)
type usage = { fuel_used : int; mem_bytes : int }

type outcome = { status : status; timings : timings; usage : usage }

(* Per-domain sandbox state: the nesting depth that backs [guard_syscall]
   plus the active fuel budget, so concurrent domains neither observe
   each other's sandboxes nor share fuel. It lives outside any request
   because [guard_syscall] must hold wherever a sandbox runs. The wall
   budget is not here: a run tightens the request's own deadline
   (Sesame_request) instead. *)
type dstate = {
  mutable depth : int;
  mutable fuel_left : int;  (* < 0: unlimited *)
  mutable fuel_limit : int;
  mutable ticks : int;  (* monotone tick count — usage metering, never restored *)
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { depth = 0; fuel_left = -1; fuel_limit = 0; ticks = 0 })

let state () = Domain.DLS.get dls

let in_sandbox () = (state ()).depth > 0

let guard_syscall what =
  if in_sandbox () then
    raise (Forbidden_syscall (Printf.sprintf "%s is forbidden inside a sandbox" what))

let now () = Sesame_clock.now_s ()

exception Out_of_fuel of int
exception Past_deadline
exception Mem_exceeded of int * int

(* The WASM engine's interruption points, modelled as an explicit callback:
   guest code is expected to tick on loop back-edges. A guest that never
   ticks still hits the post-execution deadline check in [run]. *)
let tick () =
  let st = state () in
  if st.depth > 0 then begin
    st.ticks <- st.ticks + 1;
    if st.fuel_left >= 0 then begin
      if st.fuel_left = 0 then raise (Out_of_fuel st.fuel_limit);
      st.fuel_left <- st.fuel_left - 1
    end;
    if Sesame_request.expired_now () then raise Past_deadline
  end

(* Busy-wait to model the guest's slower code. *)
let simulate_slowdown elapsed slowdown =
  if slowdown > 1.0 && elapsed > 0.0 then begin
    let extra = elapsed *. (slowdown -. 1.0) in
    let deadline = now () +. extra in
    while now () < deadline do
      ignore (Sys.opaque_identity ())
    done
  end

(* [limit_s] is the trapped run's own wall budget: a deadline that
   expires inside a run is reported against that run's budget. *)
let trap_of_exn ~limit_s = function
  | Forbidden_syscall msg -> Syscall_blocked msg
  | Arena.Sandbox_trap msg -> Sandbox_fault msg
  | Sesame_faults.Injected { point; action; _ } ->
      Fault_injected (Sesame_faults.injected_message point action)
  | Out_of_fuel limit -> Fuel_exhausted { limit }
  | Past_deadline -> Deadline_exceeded { limit_s }
  | Mem_exceeded (used_bytes, limit_bytes) -> Memory_exceeded { used_bytes; limit_bytes }
  | exn -> Guest_exception (Printexc.to_string exn)

let run config ~input ~f =
  let budget = config.budget in
  (* The region's wall budget is capped by the ambient request deadline
     (Sesame_request): a region can never outlive the request that
     spawned it, even when its configured budget is looser or absent. An
     already-expired request yields a zero budget, trapped on the first
     tick or at the post-execution check. The guest runs with the
     request's deadline tightened to this budget, which a nested run can
     tighten further but never extend. *)
  let wall_budget_s =
    let ambient = Sesame_request.current () in
    let remaining =
      if Sesame_request.is_none ambient then None
      else Some (Float.max 0.0 (Sesame_request.remaining_s ambient))
    in
    match (budget.deadline_s, remaining) with
    | Some d, Some r -> Some (Float.min d r)
    | Some d, None -> Some d
    | None, r -> r
  in
  let t0 = now () in
  let arena =
    match config.mode with
    | Naive -> Arena.create ~size:config.arena_size ()
    | Pooled pool -> Pool.acquire pool
  in
  let t1 = now () in
  let st = state () in
  let ticks0 = st.ticks in
  (* Exactly one of these runs, exactly once: a clean arena is wiped and
     pooled; a trapped one is quarantined (dropped and replaced), never
     returned to reuse. Usage is sampled first: release wipes the arena
     and resets its high-water mark. *)
  let finish status t2 t3 t4 =
    let usage = { fuel_used = st.ticks - ticks0; mem_bytes = Arena.high_water arena } in
    (match config.mode with
    | Naive -> ()
    | Pooled pool -> (
        match status with
        | Ok _ -> Pool.release pool arena
        | Trapped _ -> Pool.quarantine pool arena));
    let t5 = now () in
    {
      status;
      timings =
        {
          setup_s = t1 -. t0;
          copy_in_s = t2 -. t1;
          exec_s = t3 -. t2;
          copy_out_s = t4 -. t3;
          teardown_s = t5 -. t4;
        };
      usage;
    }
  in
  let check_mem () =
    match budget.mem_bytes with
    | Some cap ->
        let used = Arena.high_water arena in
        if used > cap then raise (Mem_exceeded (used, cap))
    | None -> ()
  in
  let saved = (st.fuel_left, st.fuel_limit) in
  match
    let addr_in = Copier.copy_in config.strategy arena input in
    let guest_input = Copier.copy_out config.strategy arena addr_in in
    check_mem ();
    let t2 = now () in
    st.depth <- st.depth + 1;
    (match budget.fuel with
    | Some fuel ->
        st.fuel_left <- fuel;
        st.fuel_limit <- fuel
    | None -> ());
    let deadline =
      match wall_budget_s with Some d -> Sesame_request.after_s d | None -> Sesame_request.none
    in
    let guest_result =
      Fun.protect
        ~finally:(fun () ->
          st.depth <- st.depth - 1;
          let fuel_left, fuel_limit = saved in
          st.fuel_left <- fuel_left;
          st.fuel_limit <- fuel_limit)
        (fun () ->
          Sesame_request.with_deadline deadline (fun () ->
              let e0 = now () in
              Sesame_faults.hit Sesame_faults.Guest_body;
              let r = f guest_input in
              simulate_slowdown (now () -. e0) config.slowdown;
              r))
    in
    (* A guest that never ticked but overran its deadline is still caught
       before its result is copied out. *)
    (match wall_budget_s with
    | Some d when now () -. t2 > d -> raise Past_deadline
    | _ -> ());
    let t3 = now () in
    let addr_out = Copier.copy_in config.strategy arena guest_result in
    let result = Copier.copy_out config.strategy arena addr_out in
    check_mem ();
    let t4 = now () in
    (result, t2, t3, t4)
  with
  | result, t2, t3, t4 -> finish (Ok result) t2 t3 t4
  | exception (Fun.Finally_raised exn | exn) ->
      let t = now () in
      let limit_s = Option.value wall_budget_s ~default:0.0 in
      finish (Trapped (trap_of_exn ~limit_s exn)) t t t
