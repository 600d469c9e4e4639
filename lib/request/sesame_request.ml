(* Per-request state in domain-local storage: one record per request,
   holding its absolute monotonic-clock deadline and its degraded mark.

   Deadline representation: nanoseconds on Sesame_clock's monotonic
   clock. Int64.max_int stands for "no deadline" so comparisons stay
   branch-free (min works unchanged for tightening). *)

type t = int64

let none : t = Int64.max_int
let is_none (t : t) = Int64.equal t none

let after_s (s : float) : t =
  Int64.add (Sesame_clock.now_ns ()) (Int64.of_float (s *. 1e9))

let after_ms (ms : int) : t = after_s (float_of_int ms /. 1000.)

type state = { mutable deadline : t; mutable degraded : string option }

(* Outside any [serve] scope a domain uses its own root record, which
   no server reads. *)
let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { deadline = none; degraded = None })

let current () : t = (Domain.DLS.get key).deadline

(* Install [d] on the current record for the extent of [f]. The record
   is captured once, so a [serve] scope opened inside [f] cannot
   redirect the restore. *)
let scoped (d : t) (f : unit -> 'a) : 'a =
  let st = Domain.DLS.get key in
  let prev = st.deadline in
  st.deadline <- d;
  Fun.protect ~finally:(fun () -> st.deadline <- prev) f

let with_deadline (d : t) (f : unit -> 'a) : 'a =
  if Int64.compare d (current ()) < 0 then scoped d f else f ()

let unrestricted (f : unit -> 'a) : 'a = if is_none (current ()) then f () else scoped none f

let serve (d : t) (f : unit -> 'a) : 'a * string option =
  let outer = Domain.DLS.get key in
  let deadline = if Int64.compare d outer.deadline < 0 then d else outer.deadline in
  let st = { deadline; degraded = None } in
  Domain.DLS.set key st;
  let result = Fun.protect ~finally:(fun () -> Domain.DLS.set key outer) f in
  (result, st.degraded)

let mark_degraded reason = (Domain.DLS.get key).degraded <- Some reason

let remaining_s (t : t) : float =
  if is_none t then infinity
  else Int64.to_float (Int64.sub t (Sesame_clock.now_ns ())) /. 1e9

let remaining_ms (t : t) : int =
  if is_none t then max_int
  else
    let ms = remaining_s t *. 1000. in
    if ms <= 0. then 0 else int_of_float ms

let expired (t : t) : bool =
  (not (is_none t)) && Int64.compare (Sesame_clock.now_ns ()) t >= 0

let expired_now () = expired (current ())

exception Expired of string

let error_message what = Printf.sprintf "deadline exceeded: %s over budget" what
let check what = if expired_now () then raise (Expired what)
