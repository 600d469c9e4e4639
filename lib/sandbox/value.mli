(** Structured values exchanged with the sandbox.

    The sandbox cannot share memory with the host, so inputs and outputs
    cross the boundary as values of this type, either serialized or
    directly copied with layout translation (§7.2 "Optimizations"). *)

type t =
  | Unit
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Vec of t list
  | Tuple of t list
  | Floats of float array
      (** A flat f64 vector: copied in as one contiguous run of 8-byte
          words rather than one boxed object per element. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val size_bytes : t -> int
(** Approximate payload size, used by benchmarks to report copy volume. *)

val floats : float list -> t
(** Convenience: a [Vec] of [Float]s (not a {!Floats}). *)

val to_floats : t -> float list option
