(** Field-disjoint precision regions.

    Leakage-free regions the var-granular seed engine wrongly rejected —
    one sensitive field used to poison the whole struct — plus controls
    that must stay rejected (genuine leaks, depth-widened flows,
    index-insensitive element writes, var-granular taint signatures).
    The corpus suite asserts that every [flips] case is accepted by the
    place-sensitive engine and that every control is rejected with a
    non-empty witness trace. The seed engine's verdicts on these regions
    are recorded in EXPERIMENTS.md; the engine itself is gone. *)

module Scrut := Sesame_scrutinizer

type case = {
  name : string;
  spec : Scrut.Spec.t;
  flips : bool;
      (** [true]: leakage-free, rejected by the seed engine, accepted by
          the place-sensitive one.
          [false]: a control the place-sensitive engine must reject. *)
  description : string;
}

val program : unit -> Scrut.Program.t
val cases : unit -> case list

val counts : unit -> int * int
(** (flips, controls). *)
