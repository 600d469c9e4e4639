(** The sandbox pool (§7.2 "Optimizations").

    Firefox reuses one sandbox per trust domain; that would be unsafe for
    Sesame because a later invocation over weakly-policied data could
    observe residue of an earlier one. Sesame instead keeps a pool of
    preallocated sandboxes and {e wipes} each one's memory after use.

    Fault containment: an arena whose guest trapped or blew its budget is
    {e quarantined} — poisoned, dropped, and replaced by a fresh arena —
    rather than wiped and reused, so a fault can never seed residue (or a
    corrupted allocator) into a later invocation.

    Capacity is {e mutable} between the initial capacity and
    [max_capacity]: bench serve's [on_scale] hook calls {!set_capacity}
    with the worker count each time the server's autoscaler
    ({!Sesame_server}) changes it, keeping one arena per handler worker
    so load spikes become scaling before they become 503s. By default
    [max_capacity] equals the initial capacity, so nothing scales unless
    explicitly enabled. *)

type t

type stats = {
  created : int;  (** arenas allocated (preallocation + overflow + replacements) *)
  acquired : int;
  reused : int;  (** acquisitions served from the pool *)
  wiped : int;  (** wipes of arenas actually returned to the pool *)
  dropped : int;  (** arenas discarded (pool full, quarantined, or shrunk away) *)
  poisoned : int;  (** arenas quarantined after a trap/budget overrun *)
  replaced : int;  (** fresh arenas preallocated to replace quarantined ones *)
  free : int;  (** arenas currently idle in the pool *)
  capacity : int;  (** current (possibly scaled) capacity *)
  grown : int;  (** capacity increases applied via {!set_capacity} *)
  shrunk : int;  (** capacity decreases applied via {!set_capacity} *)
}

val create : ?capacity:int -> ?max_capacity:int -> ?arena_size:int -> unit -> t
(** Preallocates [capacity] (default 2) arenas of [arena_size] bytes.
    Later {!set_capacity} calls stay between [capacity], the floor, and
    [max_capacity] (default, and at least, [capacity]). *)

val acquire : t -> Arena.t
(** Pops a clean arena, or allocates a fresh one when the pool is empty. *)

val release : t -> Arena.t -> unit
(** Wipes the arena and returns it to the pool; dropped without wiping if
    the pool is at capacity, quarantined if the arena is poisoned. *)

val quarantine : t -> Arena.t -> unit
(** Poisons and drops the arena, preallocating a clean replacement when
    the pool has room. Never returns a poisoned arena to the free list. *)

val set_capacity : t -> int -> int
(** Clamps the target into [min,max] and applies it, returning the new
    capacity. Growing preallocates arenas up to the new capacity;
    shrinking drops surplus {e free} arenas (in-flight arenas are simply
    not readmitted past the new bound). *)

val capacity : t -> int
val bounds : t -> int * int
(** [(floor, max_capacity)], where the floor is the initial capacity. *)

val attach_preflight : t -> Preflight.report -> unit
(** Records the preflight report this pool was constructed under — set by
    {!Sfi.create_pool}, which refuses to build the pool unless the report
    passed. *)

val preflight_report : t -> Preflight.report option

val stats : t -> stats
val available : t -> int
(** O(1). *)

val healthy : t -> bool
(** The free list is within capacity and contains no poisoned arena. *)
