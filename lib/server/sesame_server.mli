(** Real TCP serving for [Sesame_http]: a listener + accept loop feeding
    a fixed set of handler domains, HTTP/1.1 keep-alive with
    per-connection request and idle-time bounds, and shed-don't-queue
    overload behaviour (503 once [max_connections] sockets are open).

    A request runs start to finish on the handler domain that took its
    connection — parallelism comes from concurrent connections, one
    handler domain each. *)

module Http = Sesame_http

type autoscale = {
  min_domains : int;
      (** floor on total handler workers; when above [config.domains]
          the difference is pre-spawned as burst workers at start *)
  max_domains : int;  (** ceiling on total handler workers *)
  interval_s : float;  (** supervisor sampling period *)
  queue_high : int;
      (** handoff-queue depth that counts as pressure; any shedding
          since the last sample counts as pressure too *)
  idle_samples : int;
      (** consecutive quiet samples (empty queue, no shedding) before
          one burst worker is retired *)
}

val default_autoscale : autoscale
(** floor 0 (the fixed handler domains alone), ceiling 8, 50 ms sampling, queue depth 4,
    10 quiet samples to shrink. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  domains : int;  (** fixed handler domains, each a [Domain.spawn] *)
  backlog : int;
  max_connections : int;
      (** accepted-but-unfinished connections beyond this are shed with
          an immediate 503 + close *)
  max_requests_per_connection : int;
  idle_timeout_s : float;  (** SO_RCVTIMEO on each connection *)
  limits : Http.Wire.limits;
  default_deadline_ms : int;
      (** wall budget stamped on each request when the client sends no
          [X-Deadline-Ms]; 0 leaves the request unbounded *)
  max_deadline_ms : int;
      (** ceiling on a client-requested [X-Deadline-Ms] — clients may
          tighten their budget freely but never extend past this *)
  retry_after_s : int;
      (** [Retry-After] value stamped on every 503 the server
          originates (accept-time sheds and mutation sheds alike) *)
  health_paths : string list;
      (** paths never shed at request level — health probes keep
          answering while everything else degrades *)
  shed_mutations_at : int;
      (** active connections at/above this shed non-health mutations
          (anything but GET/HEAD) with 503 + [Retry-After], so reads
          keep their capacity right up to [max_connections] *)
  autoscale : autoscale option;
      (** [None] (the default) keeps the fixed [domains]-sized worker
          set; [Some] adds a supervisor domain that grows the set with
          burst workers under queue/shed pressure and shrinks it when
          idle. *)
}

val default_config : config
(** 127.0.0.1:ephemeral, [max 2 PARALLEL_DOMAINS] handler domains
    (the variable clamped to [1 .. Domain.recommended_domain_count ()],
    1 when unset or unparsable), 256 connections, 1000 requests/connection, 5 s idle
    timeout, {!Http.Wire.default_limits}; 5 s default deadline, 30 s
    deadline ceiling, [Retry-After: 1], health at [/health]/[/healthz],
    mutations shed at 192 active connections. *)

type t

val start :
  ?config:config ->
  ?on_error:(string -> unit) ->
  ?on_scale:(workers:int -> unit) ->
  handler:(Http.Request.t -> Http.Response.t) ->
  unit ->
  (t, string) result
(** Binds, listens, and returns once the listener and handler domains
    are running. Handler exceptions become redacted 500s ("internal
    error"); [on_error] (default stderr) gets the method and the
    exception's constructor name, never its text or the raw path.
    HEAD requests are dispatched to the handler as GET and answered
    with the body stripped, so routers only register GET routes.

    [on_scale] fires from the supervisor domain after every change to
    the total worker count (including the initial floor pre-spawn),
    with the new total — wire it to [Pool.set_capacity] to keep sandbox
    arenas in step with handler concurrency. Never called when
    [config.autoscale] is [None]. *)

val degraded_header : string
(** ["X-Sesame-Degraded"]: stamped on a response whose request a layer
    below the handler marked degraded ({!Sesame_request.mark_degraded}),
    with the mark's reason as its value, so clients can tell a fresh
    answer from a last-known-good one. *)

val port : t -> int
(** The bound port (useful with [config.port = 0]). *)

type stats = {
  accepted : int;
  served : int;  (** requests answered, across all connections *)
  shed : int;  (** connections refused with 503 at capacity *)
  mutations_shed : int;
      (** requests refused with 503 by the mutation watermark (these
          {e are} also counted in [served]: the client got an answer) *)
  parse_errors : int;  (** requests answered 400/413/431 *)
  timeouts : int;  (** connections closed by the idle deadline *)
  active : int;  (** currently accepted-but-unfinished connections *)
  burst_workers : int;  (** autoscaler burst workers currently alive *)
  scale_ups : int;  (** demand-driven grow events *)
  scale_downs : int;  (** idle-driven shrink events *)
}

val stats : t -> stats

val stop : t -> unit
(** Stops accepting, drains queued connections, nudges in-flight ones to
    close after their current response, joins every domain (including
    the autoscale supervisor and its burst workers — so stop may wait
    out one [interval_s] sample). Idempotent. *)
