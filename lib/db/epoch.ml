(* Schema-level events only: row traffic cannot change what a compiled
   plan certificate means, so it never moves this counter. *)
let structure_counter = Atomic.make 0
let structure () = Atomic.get structure_counter
let bump_structural () = Atomic.incr structure_counter
