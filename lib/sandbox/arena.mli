(** The sandbox memory arena: the software-fault-isolation region.

    Models RLBox's dedicated memory region: a fixed-size 32-bit address
    space allocated at sandbox creation. All guest data lives here; every
    access is bounds-checked and an out-of-range address raises
    {!Sandbox_trap} (the SFI check). A small prefix is reserved for guest
    globals, checkpointed at creation so {!wipe} can restore it — the
    paper's "zeroing out the sandbox stack and heap, and restoring global
    data ... from a checkpoint". *)

exception Sandbox_trap of string

type t

val create : ?size:int -> ?globals_size:int -> unit -> t
(** Default 4 MiB arena with a 4 KiB globals segment. Creation cost is
    dominated by allocating and zeroing the region, as in RLBox. *)

val size : t -> int
val high_water : t -> int
(** Highest address ever allocated (wiped region bound). *)

val poison : t -> unit
(** Marks the arena as having hosted a trapped/over-budget guest. A
    poisoned arena must never be reused: {!Pool.release} drops it instead
    of returning it to the free list. *)

val poisoned : t -> bool

val alloc : t -> int -> int
(** [alloc t n] bump-allocates [n] bytes (8-byte aligned) and returns the
    guest address; raises {!Sandbox_trap} when the arena is exhausted. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_f64s : t -> int -> int -> float array
(** [read_f64s t addr n] reads [n] contiguous f64s; the whole run is
    bounds-checked before anything is allocated or read. *)

val write_f64s : t -> int -> float array -> unit
val read_bytes : t -> int -> int -> string
val write_bytes : t -> int -> string -> unit

val write_global_u32 : t -> int -> int -> unit
(** Offset within the globals segment. *)

val read_global_u32 : t -> int -> int

val wipe : t -> unit
(** Zeroes the used heap (up to the high-water mark), restores globals
    from the creation checkpoint, and resets the allocator — isolation
    across pooled invocations. *)

val reset_allocator : t -> unit
(** Resets the bump pointer {e without} wiping — deliberately unsafe reuse,
    used by tests to demonstrate why wiping is necessary. *)

val swizzle_offset : t -> int
(** The host-address offset applied to guest pointers ("pointer
    swizzling"): an opaque constant that distinguishes guest addresses from
    host ones in tests. *)
