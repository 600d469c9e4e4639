type stats = {
  created : int;
  acquired : int;
  reused : int;
  wiped : int;
  dropped : int;
  poisoned : int;
  replaced : int;
  free : int;
  capacity : int;
  grown : int;
  shrunk : int;
}

(* Counters are Atomics and the free list sits behind a mutex: sandboxed
   regions may run from worker domains, and both the list and the stats
   must stay exact (a lost stats increment hides a quarantine; a torn
   free list hands one arena to two guests). [capacity] is mutable for
   autoscaling and only read/written under the same mutex. *)
type t = {
  mutable capacity : int;
  min_capacity : int;
  max_capacity : int;
  arena_size : int;
  lock : Mutex.t;
  mutable free : Arena.t list;
  mutable free_count : int;  (* |free|, kept so release stays O(1) *)
  mutable preflight : Preflight.report option;
  created : int Atomic.t;
  acquired : int Atomic.t;
  reused : int Atomic.t;
  wiped : int Atomic.t;
  dropped : int Atomic.t;
  poisoned : int Atomic.t;
  replaced : int Atomic.t;
  grown : int Atomic.t;
  shrunk : int Atomic.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(capacity = 2) ?max_capacity ?(arena_size = 4 * 1024 * 1024) () =
  let max_capacity = max capacity (Option.value max_capacity ~default:capacity) in
  let free = List.init capacity (fun _ -> Arena.create ~size:arena_size ()) in
  {
    capacity;
    min_capacity = capacity;
    max_capacity;
    arena_size;
    lock = Mutex.create ();
    free;
    free_count = capacity;
    preflight = None;
    created = Atomic.make capacity;
    acquired = Atomic.make 0;
    reused = Atomic.make 0;
    wiped = Atomic.make 0;
    dropped = Atomic.make 0;
    poisoned = Atomic.make 0;
    replaced = Atomic.make 0;
    grown = Atomic.make 0;
    shrunk = Atomic.make 0;
  }

let acquire t =
  Atomic.incr t.acquired;
  let pooled =
    with_lock t (fun () ->
        match t.free with
        | arena :: rest ->
            t.free <- rest;
            t.free_count <- t.free_count - 1;
            Some arena
        | [] -> None)
  in
  match pooled with
  | Some arena ->
      Atomic.incr t.reused;
      arena
  | None ->
      Atomic.incr t.created;
      Arena.create ~size:t.arena_size ()

(* A poisoned arena hosted a trapped or over-budget guest; its contents are
   untrusted and it must never serve another invocation. Drop it and — when
   the pool has room — preallocate a clean replacement so capacity (and the
   latency benefit of pooling) survives the fault. *)
let quarantine t arena =
  Arena.poison arena;
  Atomic.incr t.poisoned;
  Atomic.incr t.dropped;
  let replaced =
    with_lock t (fun () ->
        if t.free_count < t.capacity then begin
          t.free <- Arena.create ~size:t.arena_size () :: t.free;
          t.free_count <- t.free_count + 1;
          true
        end
        else false)
  in
  if replaced then begin
    Atomic.incr t.created;
    Atomic.incr t.replaced
  end

let release t arena =
  if Arena.poisoned arena then quarantine t arena
  else begin
    let returned =
      with_lock t (fun () ->
          if t.free_count < t.capacity then begin
            (* Only arenas that actually return to the pool are wiped (and
               counted as wiped); an arena the GC is about to reclaim needs
               neither. *)
            Arena.wipe arena;
            t.free <- arena :: t.free;
            t.free_count <- t.free_count + 1;
            true
          end
          else false)
    in
    if returned then Atomic.incr t.wiped else Atomic.incr t.dropped
  end

(* Autoscaling. Growing preallocates up to the new capacity so a burst is
   served from the pool rather than from per-request allocation; shrinking
   drops surplus free arenas (arenas in flight simply won't be readmitted
   past the new bound by [release]). Both clamp to [min,max]. *)
let set_capacity t n =
  let target = min (max n t.min_capacity) t.max_capacity in
  let added, dropped_now, direction =
    with_lock t (fun () ->
        let old = t.capacity in
        t.capacity <- target;
        if target > old then begin
          let add = max 0 (target - t.free_count) in
          for _ = 1 to add do
            t.free <- Arena.create ~size:t.arena_size () :: t.free
          done;
          t.free_count <- t.free_count + add;
          (add, 0, 1)
        end
        else if target < old then begin
          let drop = max 0 (t.free_count - target) in
          for _ = 1 to drop do
            match t.free with
            | _ :: rest ->
                t.free <- rest;
                t.free_count <- t.free_count - 1
            | [] -> ()
          done;
          (0, drop, -1)
        end
        else (0, 0, 0))
  in
  for _ = 1 to added do
    Atomic.incr t.created
  done;
  for _ = 1 to dropped_now do
    Atomic.incr t.dropped
  done;
  if direction > 0 then Atomic.incr t.grown
  else if direction < 0 then Atomic.incr t.shrunk;
  target

let capacity t = with_lock t (fun () -> t.capacity)
let bounds t = (t.min_capacity, t.max_capacity)
let attach_preflight t report = with_lock t (fun () -> t.preflight <- Some report)
let preflight_report t = with_lock t (fun () -> t.preflight)

let stats t =
  let free, capacity = with_lock t (fun () -> (t.free_count, t.capacity)) in
  {
    created = Atomic.get t.created;
    acquired = Atomic.get t.acquired;
    reused = Atomic.get t.reused;
    wiped = Atomic.get t.wiped;
    dropped = Atomic.get t.dropped;
    poisoned = Atomic.get t.poisoned;
    replaced = Atomic.get t.replaced;
    free;
    capacity;
    grown = Atomic.get t.grown;
    shrunk = Atomic.get t.shrunk;
  }

let available t = with_lock t (fun () -> t.free_count)

let healthy t =
  with_lock t (fun () ->
      t.free_count <= t.capacity && List.for_all (fun a -> not (Arena.poisoned a)) t.free)
