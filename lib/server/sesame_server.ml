(* Real TCP serving for lib/http: a listener domain accepts connections
   and hands them, through a handoff queue, to [domains] handler domains,
   each running one long-lived worker loop. A request runs start to
   finish on the handler domain that took its connection, so parallelism
   comes from concurrent connections, one domain each.

   Overload policy is shed-don't-queue: once [max_connections] sockets
   are accepted-but-unfinished, new arrivals get an immediate 503 and a
   close instead of joining an unbounded queue. Keep-alive connections
   are bounded twice over: [max_requests_per_connection] requests, and
   an [idle_timeout_s] receive timeout enforced by SO_RCVTIMEO. *)

module Http = Sesame_http

(* Autoscaling adds a supervisor domain that samples the handoff queue
   and the shed counter every [interval_s]. Pressure (queue depth at or
   past [queue_high], or any shedding since the last sample) grows the
   worker set by one burst domain up to [max_domains]; [idle_samples]
   consecutive quiet samples shrink it by one down to the floor. Burst
   domains run the same worker loop as the fixed handler domains, plus a
   retirement check. *)
type autoscale = {
  min_domains : int;
  max_domains : int;
  interval_s : float;
  queue_high : int;
  idle_samples : int;
}

let default_autoscale =
  { min_domains = 0; max_domains = 8; interval_s = 0.05; queue_high = 4; idle_samples = 10 }

type config = {
  host : string;
  port : int;  (* 0 picks an ephemeral port; see port t *)
  domains : int;  (* fixed handler domains *)
  backlog : int;
  max_connections : int;
  max_requests_per_connection : int;
  idle_timeout_s : float;
  limits : Http.Wire.limits;
  default_deadline_ms : int;  (* per-request budget when the client names none; 0 = unbounded *)
  max_deadline_ms : int;  (* ceiling on client-requested X-Deadline-Ms *)
  retry_after_s : int;  (* stamped on every 503 this server originates *)
  health_paths : string list;  (* never shed at request level *)
  shed_mutations_at : int;  (* active conns at/above this shed non-health mutations *)
  autoscale : autoscale option;
}

(* PARALLEL_DOMAINS sizes the default handler-domain count, clamped to
   [1 .. recommended_domain_count]; unset or unparsable means 1. *)
let env_domains () =
  let cap = max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "PARALLEL_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n cap
      | Some _ | None -> 1)

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    domains = max 2 (env_domains ());
    backlog = 128;
    max_connections = 256;
    max_requests_per_connection = 1000;
    idle_timeout_s = 5.0;
    limits = Http.Wire.default_limits;
    autoscale = None;
    default_deadline_ms = 5_000;
    max_deadline_ms = 30_000;
    retry_after_s = 1;
    health_paths = [ "/health"; "/healthz" ];
    shed_mutations_at = 192;
  }

type stats = {
  accepted : int;
  served : int;
  shed : int;
  mutations_shed : int;
  parse_errors : int;
  timeouts : int;
  active : int;
  burst_workers : int;
  scale_ups : int;
  scale_downs : int;
}

type t = {
  config : config;
  handler : Http.Request.t -> Http.Response.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : Unix.file_descr Queue.t;
  open_conns : (Unix.file_descr, unit) Hashtbl.t;  (* guarded by mutex *)
  stopping : bool Atomic.t;
  active : int Atomic.t;
  accepted : int Atomic.t;
  served : int Atomic.t;
  shed : int Atomic.t;
  mutations_shed : int Atomic.t;
  parse_errors : int Atomic.t;
  timeouts : int Atomic.t;
  burst_target : int Atomic.t;
  burst_active : int Atomic.t;
  scale_ups : int Atomic.t;
  scale_downs : int Atomic.t;
  on_error : string -> unit;
  on_scale : workers:int -> unit;
  mutable burst_handles : unit Domain.t list;  (* guarded by mutex *)
  mutable listener : unit Domain.t option;
  mutable workers : unit Domain.t list;
  mutable supervisor : unit Domain.t option;
}

let port t = t.bound_port

let stats t =
  {
    accepted = Atomic.get t.accepted;
    served = Atomic.get t.served;
    shed = Atomic.get t.shed;
    mutations_shed = Atomic.get t.mutations_shed;
    parse_errors = Atomic.get t.parse_errors;
    timeouts = Atomic.get t.timeouts;
    active = Atomic.get t.active;
    burst_workers = Atomic.get t.burst_active;
    scale_ups = Atomic.get t.scale_ups;
    scale_downs = Atomic.get t.scale_downs;
  }

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let source_of_fd fd =
  let buf = Bytes.create 8192 in
  Http.Wire.source_of_fun (fun () ->
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ""
      | n -> Bytes.sub_string buf 0 n)

(* Deregister-then-close under the mutex so stop's shutdown sweep can
   never hit a recycled descriptor number. *)
let finish_connection t fd =
  Mutex.lock t.mutex;
  Hashtbl.remove t.open_conns fd;
  close_quietly fd;
  Mutex.unlock t.mutex;
  Atomic.decr t.active

let error_body = function
  | Http.Wire.Malformed _ as e -> Http.Wire.error_message e
  | (Http.Wire.Request_line_too_long | Http.Wire.Headers_too_large | Http.Wire.Body_too_large)
    as e ->
      Http.Wire.error_message e

(* Every 503 this server originates carries Retry-After, so honest
   clients (and the load generator) know when to come back instead of
   hammering an overloaded server. *)
let unavailable t body =
  Http.Response.add_header
    (Http.Response.error Http.Status.Service_unavailable body)
    "Retry-After"
    (string_of_int t.config.retry_after_s)

let degraded_header = "X-Sesame-Degraded"

(* The request's wall budget: the client's X-Deadline-Ms (capped by the
   server ceiling) or the configured default. 0 means unbounded. *)
let request_budget_ms t request =
  let requested =
    match Http.Request.header request "x-deadline-ms" with
    | None -> None
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some ms when ms > 0 -> Some ms
        | Some _ | None -> None)
  in
  match requested with
  | Some ms -> min ms t.config.max_deadline_ms
  | None -> t.config.default_deadline_ms

let handle_connection t fd =
  Mutex.lock t.mutex;
  Hashtbl.replace t.open_conns fd ();
  Mutex.unlock t.mutex;
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.idle_timeout_s;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let src = source_of_fd fd in
  let respond ?head_only ~keep_alive response =
    write_all fd (Http.Wire.write_response ?head_only ~keep_alive response)
  in
  let rec serve requests_served =
    match Http.Wire.read_request ~limits:t.config.limits src with
    | `Eof -> ()
    | `Error e ->
        Atomic.incr t.parse_errors;
        respond ~keep_alive:false
          (Http.Response.error (Http.Wire.error_status e) (error_body e))
    | `Request { request; keep_alive; version = _ } ->
        (* HEAD is answered from the GET handler with the body stripped,
           per RFC 9110; handlers never need to register HEAD routes. *)
        let head_only = Http.Meth.equal request.Http.Request.meth Http.Meth.HEAD in
        let request =
          if head_only then { request with Http.Request.meth = Http.Meth.GET } else request
        in
        (* Admission by priority class: health probes are always
           answered; mutations are shed (503 + Retry-After) ahead of
           reads once active connections cross the watermark — reads and
           health stay useful right up to the hard connection cap. *)
        let health = List.mem request.Http.Request.path t.config.health_paths in
        let mutation = not (Http.Meth.equal request.Http.Request.meth Http.Meth.GET) in
        let response =
          if
            mutation && (not health)
            && Atomic.get t.active >= t.config.shed_mutations_at
          then begin
            Atomic.incr t.mutations_shed;
            unavailable t "server overloaded; mutations shed before reads"
          end
          else begin
            (* The whole handler runs under a fresh request record
               carrying the request's wall budget: every blocking layer
               below (policy conjunctions, DB scans, WAL admission,
               sandbox runs) observes the same deadline, and a degraded
               mark set for one request never reaches the next. *)
            let run () =
              try t.handler request
              with exn ->
                (* Same redaction discipline as Router.dispatch: the
                   client sees a fixed body, the log sees the method and
                   the exception's constructor name, never its text or
                   the raw path. *)
                t.on_error
                  (Printf.sprintf "%s: handler raised %s"
                     (Http.Meth.to_string request.Http.Request.meth)
                     (Printexc.exn_slot_name exn));
                Http.Response.error Http.Status.Internal_error "internal error"
            in
            let budget_ms = request_budget_ms t request in
            let deadline =
              if budget_ms <= 0 then Sesame_request.none else Sesame_request.after_ms budget_ms
            in
            match Sesame_request.serve deadline run with
            | response, None -> response
            | response, Some reason -> Http.Response.add_header response degraded_header reason
          end
        in
        let requests_served = requests_served + 1 in
        let keep_alive =
          keep_alive
          && requests_served < t.config.max_requests_per_connection
          && not (Atomic.get t.stopping)
        in
        (* Count before writing: a client that has read this response
           must never observe a [served] total that excludes it. *)
        Atomic.incr t.served;
        respond ~head_only ~keep_alive response;
        if keep_alive then serve requests_served
  in
  (try serve 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* SO_RCVTIMEO fired: the peer sat idle past the deadline. *)
      Atomic.incr t.timeouts
  | Unix.Unix_error _ -> ());
  finish_connection t fd

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
    Condition.wait t.nonempty t.mutex
  done;
  let next = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Mutex.unlock t.mutex;
  match next with
  | Some fd ->
      handle_connection t fd;
      worker_loop t
  | None -> ()

(* A burst worker is a copy of worker_loop with one extra exit
   condition: when more burst workers are alive than the supervisor's
   target, the first to reach the (mutex-serialized) check claims the
   retirement by decrementing [burst_active] — so a scale-down retires
   exactly one worker, whichever gets there first. *)
let rec burst_loop t =
  Mutex.lock t.mutex;
  let rec await () =
    if Atomic.get t.stopping || Atomic.get t.burst_active > Atomic.get t.burst_target
    then begin
      Atomic.decr t.burst_active;
      None
    end
    else if Queue.is_empty t.queue then begin
      Condition.wait t.nonempty t.mutex;
      await ()
    end
    else Some (Queue.pop t.queue)
  in
  let next = await () in
  Mutex.unlock t.mutex;
  match next with
  | Some fd ->
      handle_connection t fd;
      burst_loop t
  | None -> ()

let spawn_burst t =
  (* Count the worker before it runs so a concurrent retirement check
     never under-counts. *)
  Atomic.incr t.burst_active;
  let h = Domain.spawn (fun () -> burst_loop t) in
  Mutex.lock t.mutex;
  t.burst_handles <- h :: t.burst_handles;
  Mutex.unlock t.mutex

let supervisor_loop t auto =
  let base = max 1 t.config.domains in
  let workers () = base + Atomic.get t.burst_target in
  let floor = max base (min auto.min_domains auto.max_domains) in
  (* Honour the floor up front: pre-spawned capacity is configuration,
     not a scale event, so it doesn't count toward scale_ups. *)
  if floor > base then begin
    Atomic.set t.burst_target (floor - base);
    for _ = 1 to floor - base do
      spawn_burst t
    done;
    t.on_scale ~workers:(workers ())
  end;
  let shed_prev = ref (Atomic.get t.shed) in
  let calm = ref 0 in
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (try Unix.sleepf auto.interval_s with Unix.Unix_error _ -> ());
      if not (Atomic.get t.stopping) then begin
        Mutex.lock t.mutex;
        let depth = Queue.length t.queue in
        Mutex.unlock t.mutex;
        let shed_now = Atomic.get t.shed in
        let shed_delta = shed_now - !shed_prev in
        shed_prev := shed_now;
        if depth >= auto.queue_high || shed_delta > 0 then begin
          calm := 0;
          if workers () < auto.max_domains then begin
            Atomic.incr t.burst_target;
            Atomic.incr t.scale_ups;
            spawn_burst t;
            t.on_scale ~workers:(workers ())
          end
        end
        else if depth = 0 then begin
          incr calm;
          if !calm >= auto.idle_samples && workers () > floor then begin
            calm := 0;
            Atomic.decr t.burst_target;
            Atomic.incr t.scale_downs;
            (* Wake a parked worker so the retirement check runs now
               rather than at the next connection. *)
            Mutex.lock t.mutex;
            Condition.broadcast t.nonempty;
            Mutex.unlock t.mutex;
            t.on_scale ~workers:(workers ())
          end
        end
        else calm := 0;
        loop ()
      end
    end
  in
  loop ()

let shed t fd =
  Atomic.incr t.shed;
  (try
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
     write_all fd
       (Http.Wire.write_response ~keep_alive:false
          (unavailable t "server at connection capacity"))
   with Unix.Unix_error _ -> ());
  close_quietly fd;
  Atomic.decr t.active

let rec listener_loop t =
  if Atomic.get t.stopping then ()
  else
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        listener_loop t
    | exception Unix.Unix_error _ ->
        (* Listening socket was shut down (stop) or is gone; exit. *)
        ()
    | fd, _ ->
        Atomic.incr t.accepted;
        (* fetch_and_add so the capacity check and the reservation are one
           atomic step even with shedding happening concurrently. *)
        if Atomic.fetch_and_add t.active 1 >= t.config.max_connections then shed t fd
        else begin
          Mutex.lock t.mutex;
          Queue.push fd t.queue;
          Condition.signal t.nonempty;
          Mutex.unlock t.mutex
        end;
        listener_loop t

let start ?(config = default_config) ?(on_error = fun msg -> prerr_endline ("[server] " ^ msg))
    ?(on_scale = fun ~workers:_ -> ()) ~handler () =
  (* A peer closing mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
    let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
       (* Bounded accept wait so the listener can notice stop without a
          cross-domain close race. *)
       Unix.setsockopt_float listen_fd Unix.SO_RCVTIMEO 0.25;
       Unix.bind listen_fd addr;
       Unix.listen listen_fd config.backlog
     with e ->
       close_quietly listen_fd;
       raise e);
    let bound_port =
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> config.port
    in
    let t =
      {
        config;
        handler;
        listen_fd;
        bound_port;
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        open_conns = Hashtbl.create 64;
        stopping = Atomic.make false;
        active = Atomic.make 0;
        accepted = Atomic.make 0;
        served = Atomic.make 0;
        shed = Atomic.make 0;
        mutations_shed = Atomic.make 0;
        parse_errors = Atomic.make 0;
        timeouts = Atomic.make 0;
        burst_target = Atomic.make 0;
        burst_active = Atomic.make 0;
        scale_ups = Atomic.make 0;
        scale_downs = Atomic.make 0;
        on_error;
        on_scale;
        burst_handles = [];
        listener = None;
        workers = [];
        supervisor = None;
      }
    in
    t.workers <- List.init (max 1 config.domains) (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t.listener <- Some (Domain.spawn (fun () -> listener_loop t));
    (match config.autoscale with
    | None -> ()
    | Some auto -> t.supervisor <- Some (Domain.spawn (fun () -> supervisor_loop t auto)));
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "server start failed: %s (%s)" (Unix.error_message err) fn)
  | exception Failure msg -> Error (Printf.sprintf "server start failed: %s" msg)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake the listener out of accept. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Option.iter Domain.join t.listener;
    t.listener <- None;
    close_quietly t.listen_fd;
    (* Drain never-served connections and nudge in-flight ones: shutting
       down the read side makes their next read return EOF, so workers
       close them after the in-flight response instead of waiting out the
       idle timeout. *)
    Mutex.lock t.mutex;
    while not (Queue.is_empty t.queue) do
      let fd = Queue.pop t.queue in
      close_quietly fd;
      Atomic.decr t.active
    done;
    Hashtbl.iter
      (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      t.open_conns;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    (* Join the supervisor before snapshotting burst handles: once it has
       exited no new burst workers can appear, so the snapshot is the
       complete set. Workers spawned after [stopping] was set exit on
       their first check without needing a wakeup. *)
    Option.iter Domain.join t.supervisor;
    t.supervisor <- None;
    let bursts =
      Mutex.lock t.mutex;
      let hs = t.burst_handles in
      t.burst_handles <- [];
      Mutex.unlock t.mutex;
      hs
    in
    List.iter Domain.join bursts
  end
