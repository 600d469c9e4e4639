type message = { recipient : string; subject : string; body : string }

(* Handler domains send concurrently: an append retries until its
   compare-and-set lands, so no message is lost between a read and its
   write. Newest first. *)
let messages : message list Atomic.t = Atomic.make []

let rec push message =
  let sent = Atomic.get messages in
  if not (Atomic.compare_and_set messages sent (message :: sent)) then push message

let send ~recipient ~subject ~body =
  Sesame_sandbox.Runtime.guard_syscall "email::send";
  push { recipient; subject; body }

let outbox () = List.rev (Atomic.get messages)
let clear_outbox () = Atomic.set messages []
let sent_count () = List.length (Atomic.get messages)
