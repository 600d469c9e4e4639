(* The client process: starts the server process, records each distinct
   request's expected response, drives one closed-loop connection for the
   measured window, checks every response, samples the server's CPU and
   peak RSS from /proc, reopens the store through recovery, and prints the
   metrics. *)

module Http = Sesame_http
module Apps = Sesame_apps
module Db = Sesame_db
module W = Workload

(* One closed-loop connection: at most [nproc] on the 2-core reference
   host, and one keeps the server's single handler domain busy without
   queueing. A constant, not read from the environment. *)
let connections = 1

(* Set-ups per run; setup_s is their median. *)
let setups = 3

let now_ns = Sesame_clock.now_ns
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* The server process. *)

type server = { pid : int; cmd : out_channel; out : in_channel; port : int; ready : (string * string) list }

let kv line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    (String.split_on_char ' ' line)

let get_f kvs k = float_of_string (List.assoc k kvs)

let command s line =
  output_string s.cmd (line ^ "\n");
  flush s.cmd;
  input_line s.out

(* The server's environment pins the process-wide parallel pool to one
   domain, whatever the caller's environment says. *)
let server_env () =
  Array.append
    [| "PARALLEL_DOMAINS=1" |]
    (Array.of_list
       (List.filter
          (fun e -> not (String.length e >= 17 && String.sub e 0 17 = "PARALLEL_DOMAINS="))
          (Array.to_list (Unix.environment ()))))

let spawn ~exe ~data_dir =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe [| exe; "serve"; data_dir |] (server_env ()) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let cmd = Unix.out_channel_of_descr in_w and out = Unix.in_channel_of_descr out_r in
  let line = try input_line out with End_of_file -> failwith "server exited during set-up" in
  let ready = kv line in
  { pid; cmd; out; port = int_of_string (List.assoc "port" ready); ready }

let stop s =
  close_out_noerr s.cmd;
  close_in_noerr s.out;
  match Unix.waitpid [] s.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "server process did not exit cleanly"

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_out_noerr s.cmd;
  close_in_noerr s.out;
  try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ()

(* /proc files report length 0, so read to EOF. *)
let read_file path =
  let ic = open_in path in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents buf

(* Server CPU (user + sys, every thread) in ns, from schedstat. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      (* a thread that exited since readdir has no schedstat left *)
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | stat -> Int64.add acc (Scanf.sscanf stat "%Ld" Fun.id)
      | exception Sys_error _ -> acc)
    0L (Sys.readdir dir)

let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* ------------------------------------------------------------------ *)
(* The connection. The server closes a keep-alive connection after its
   per-connection request cap; the client then reconnects. *)

type conn = { port : int; mutable fd : Unix.file_descr option; mutable src : Http.Wire.source }

let open_conn port = { port; fd = None; src = Http.Wire.source_of_string "" }

let close_conn c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let ensure c =
  match c.fd with
  | Some fd -> fd
  | None ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port));
      let buf = Bytes.create 65536 in
      c.src <-
        Http.Wire.source_of_fun (fun () ->
            match Unix.read fd buf 0 (Bytes.length buf) with 0 -> "" | n -> Bytes.sub_string buf 0 n);
      c.fd <- Some fd;
      fd

let wire_request (r : W.request) ~id =
  let headers =
    (if r.cookie = "" then [] else [ ("Cookie", r.cookie) ])
    @ (if r.body = "" then [] else [ ("Content-Type", "application/x-www-form-urlencoded") ])
    @ [ ("X-Bench-Id", string_of_int id) ]
  in
  Http.Wire.write_request ~headers:(Http.Headers.of_list headers) ~body:r.body ~host:"127.0.0.1" r.meth r.path

let write_all fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One exchange: [Some (status, body)], or [None] on a connection error
   (the connection is dropped and reopened by the next exchange). *)
let exchange c bytes =
  match
    let fd = ensure c in
    write_all fd bytes;
    Http.Wire.read_response c.src
  with
  | `Response (status, headers, body) ->
      if Http.Headers.get headers "Connection" = Some "close" then close_conn c;
      Some (status, body)
  | `Eof | `Error _ ->
      close_conn c;
      None
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _) ->
      close_conn c;
      None

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = percentile (sorted l) 0.5

(* The end-to-end figures of a run are its slow-side quartile over one-
   second slices (rates) or 5000-request chunks (latencies): the lower
   quartile of a rate, the upper quartile of a cost. The reference host
   runs at a usual speed with fast spells of 5-15 s, about a quarter faster;
   this quartile reports the usual speed, and moves with a fast spell
   only if the spell covers three quarters of the run. *)
let slow_rate l = percentile (sorted l) 0.25
let slow_cost l = percentile (sorted l) 0.75

(* Latency percentiles are taken per chunk of [chunk] consecutive
   requests. A chunk's p99 leaves [chunk / 100] samples beyond it; a run
   shorter than two chunks is one chunk. *)
let chunk = 5000

let chunked_percentile latencies p =
  let all = Array.of_list (List.rev latencies) in
  let n = Array.length all in
  let chunks = max 1 (n / chunk) in
  let size = if chunks = 1 then n else chunk in
  slow_cost (List.init chunks (fun i -> percentile (sorted (Array.to_list (Array.sub all (i * size) size))) p))

(* ------------------------------------------------------------------ *)
(* The run. *)

type tally = {
  mutable attempted : int;
  mutable passed : int;
  mutable failed_classes : (string * int) list;
  mutable latencies : float list;  (** ms, every answered request *)
  mutable by_class : (string * float list) list;  (** ms per request class *)
  mutable write_latencies : float list;
  mutable writes_acked : int;
  mutable write_ids : int list;  (** request ids of acknowledged writes sent while tracing *)
  mutable retrains : int;
}

let new_tally () =
  { attempted = 0; passed = 0; failed_classes = []; latencies = []; by_class = []; write_latencies = []; writes_acked = 0; write_ids = []; retrains = 0 }

let fail t cls =
  t.failed_classes <-
    (cls, 1 + Option.value (List.assoc_opt cls t.failed_classes) ~default:0)
    :: List.remove_assoc cls t.failed_classes

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(* Sends [r], checks the answer, and updates the tally and the model.
   With [spans], also records the round trip as [client.request], whose
   span id is the request id, and times the server's parser on the
   request's bytes. *)
let send wl conn expected tally ?spans (r : W.request) =
  let id = fresh_id () in
  let bytes = wire_request r ~id in
  let t0 = now_ns () in
  let answer = exchange conn bytes in
  let t1 = now_ns () in
  tally.attempted <- tally.attempted + 1;
  let ok =
    match answer with
    | None -> false
    | Some (status, body) ->
        let latency = ms_of_ns (Int64.sub t1 t0) in
        tally.latencies <- latency :: tally.latencies;
        tally.by_class <-
          (r.cls, latency :: Option.value (List.assoc_opt r.cls tally.by_class) ~default:[])
          :: List.remove_assoc r.cls tally.by_class;
        if r.write <> None then tally.write_latencies <- latency :: tally.write_latencies;
        W.check_response wl ~expected:(Hashtbl.find_opt expected (W.key r)) r ~status ~body
  in
  if ok then begin
    tally.passed <- tally.passed + 1;
    if r.cls = "ws.retrain" then tally.retrains <- tally.retrains + 1;
    Option.iter
      (fun w ->
        W.acknowledge wl.W.model w;
        tally.writes_acked <- tally.writes_acked + 1;
        if spans <> None then tally.write_ids <- id :: tally.write_ids)
      r.write
  end
  else fail tally r.cls;
  Option.iter
    (fun rec_ ->
      Spans.add rec_
        (Spans.Span
           {
             name = "client.request";
             id = Spans.request_span id;
             parent = Spans.no_parent;
             req = id;
             start_ns = t0;
             end_ns = t1;
           });
      Spans.span rec_ "wire.parse" ~req:id ~parent:Spans.no_parent (fun _ ->
          ignore (Sys.opaque_identity (Http.Wire.read_request (Http.Wire.source_of_string bytes)))))
    spans

(* The window is cut into one-second slices for the rate metrics. *)
let slice_ns = 1_000_000_000L

type slice = { passed : int; wall_s : float; cpu_ms : float; traced : bool }

(* With [alternate = (switch, spans)], tracing is on in the even slices
   and off in the odd ones: [switch] turns the server's tracing on or off
   between slices, and the client records [spans] only in traced slices. *)
let window wl conn expected stream ~seconds ~pid ?alternate () =
  let tally = new_tally () in
  let start = now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let slices = ref [] in
  let traced = ref false in
  let set_tracing on =
    Option.iter
      (fun (switch, _) ->
        switch on;
        traced := on)
      alternate
  in
  set_tracing true;
  let slice_start = ref (now_ns ()) and slice_cpu = ref (cpu_ns pid) and slice_passed = ref 0 in
  let close_slice t =
    let cpu = cpu_ns pid in
    slices :=
      {
        passed = tally.passed - !slice_passed;
        wall_s = Int64.to_float (Int64.sub t !slice_start) /. 1e9;
        cpu_ms = ms_of_ns (Int64.sub cpu !slice_cpu);
        traced = !traced;
      }
      :: !slices;
    slice_cpu := cpu;
    slice_passed := tally.passed
  in
  let rec loop () =
    let t = now_ns () in
    if t < deadline then begin
      if Int64.sub t !slice_start >= slice_ns then begin
        close_slice t;
        (* the switch's round trip stays out of both slices' wall time *)
        set_tracing (not !traced);
        slice_start := now_ns ()
      end;
      let spans = if !traced then Option.map snd alternate else None in
      send wl conn expected tally ?spans (stream ());
      loop ()
    end
    else close_slice t
  in
  loop ();
  set_tracing false;
  (tally, Int64.to_float (Int64.sub (now_ns ()) start) /. 1e9, List.rev !slices)

(* A closing slice shorter than half a second is too short to rate. *)
let rated slices = List.filter (fun sl -> sl.wall_s >= 0.5 && sl.passed > 0) slices
let slice_goodput sl = float_of_int sl.passed /. sl.wall_s

(* The expected-response pass: Retrain first (so /predict has a model),
   then every distinct read once. Each answer is checked against the
   seed before it is recorded. *)
let expected_pass wl conn =
  let expected = Hashtbl.create 4096 in
  let ok = ref true in
  List.iter
    (fun (r : W.request) ->
      match exchange conn (wire_request r ~id:(fresh_id ())) with
      | Some (status, body) ->
          if not (W.check_truth r ~status ~body) then begin
            ok := false;
            Printf.eprintf "expected-response pass: %s %s got %d\n%!" r.cls r.path status
          end;
          (match r.check with Reply reply when body <> reply -> ok := false | _ -> ());
          Hashtbl.replace expected (W.key r) (status, body)
      | None -> ok := false)
    (W.retrain :: wl.W.reads);
  (expected, !ok)

(* Reopen the data directory through recovery and compare the store with
   the client's model of the acknowledged writes. *)
let recovery_check (wl : W.t) ~data_dir =
  match Apps.Websubmit.create_durable ~data_dir () with
  | Error m ->
      Printf.eprintf "recovery failed: %s\n%!" m;
      (false, 0)
  | Ok (ws, store) ->
      let model = wl.W.model in
      let answers = Apps.Websubmit.answer_count ws in
      let db = Apps.Websubmit.database ws in
      let consent_ok =
        List.for_all
          (fun s ->
            match
              Db.Database.exec db "SELECT consent_employer, consent_ml FROM users WHERE email = ?"
                ~params:[ Db.Value.Text (Apps.Websubmit_schema.student_email s) ]
            with
            | Ok (Db.Database.Rows { rows = [ [| Db.Value.Bool e; Db.Value.Bool m |] ]; _ }) ->
                e = model.W.consent.(s) && m = model.W.consent.(s)
            | _ -> false)
          (List.init W.students Fun.id)
      in
      ignore (Sesame_wal.Durable.close store);
      let count_ok = answers = (W.students * W.questions) + model.W.submits_acked in
      if not count_ok then
        Printf.eprintf "recovery: %d answers, expected %d\n%!" answers
          ((W.students * W.questions) + model.W.submits_acked);
      if not consent_ok then prerr_endline "recovery: consent differs from the last acknowledged toggles";
      (count_ok && consent_ok, answers)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Output. *)

type metric = { name : string; value : float; unit : string; samples : int }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-28s %14.6f %-10s n=%d\n" m.name m.value m.unit m.samples)
    metrics;
  let body =
    String.concat ", "
      (List.map (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit) metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed body

let delta a b k = get_f b k -. get_f a k
let ratio n d = if d > 0.0 then n /. d else 0.0

(* [counters] are marks around the alternating window and its request
   count: Enforce, database and server counters, which tracing does not
   touch. [gc] are marks around the untraced window, where the server
   allocates nothing for the tracer. *)
let per_layer ~records ~counters ~gc ~overhead ~write_ids ~write_latencies ~sandbox_marks ~setup_rows =
  let m0, m1, reqs = counters in
  let reqs = float_of_int reqs in
  let d k = delta m0 m1 k in
  let per_req k = d k /. reqs in
  let g0, g1, gc_reqs = gc in
  let per_gc_req k = delta g0 g1 k /. float_of_int gc_reqs in
  let med name = median (Spans.durations records name) in
  let count name = List.length (Spans.durations records name) in
  let handle = sorted (Spans.durations records "app.handle") in
  let handled = Array.length handle in
  (* client round trip minus the server's app.handle span it covers *)
  let handled_ids = Spans.by_request records "app.handle" in
  let overhead_us =
    List.filter_map
      (fun (n, req, us) -> if n = "client.request" && Hashtbl.mem handled_ids req then Some us else None)
      (Spans.self_times records)
  in
  let checks = d "enforce_hits" +. d "enforce_misses" in
  let s0, s1 = sandbox_marks in
  let acked = Hashtbl.create 1024 in
  List.iter (fun id -> Hashtbl.replace acked id ()) write_ids;
  let writes = float_of_int (Hashtbl.length acked) in
  (* WAL counts recorded around each request, summed over acknowledged writes *)
  let wal name =
    List.fold_left
      (fun acc -> function
        | Spans.Value { name = n; req; value } when n = name && Hashtbl.mem acked req -> acc +. value
        | _ -> acc)
      0.0 records
  in
  let checkpoints = wal "wal.checkpoint" in
  let write_lat = sorted write_latencies in
  let sbx name = 1e3 *. median (Spans.values records name) in
  let sandbox_runs = List.length (Spans.values records "sandbox.exec") in
  let acquired = int_of_float (delta s0 s1 "pool_acquired") in
  let m ~samples name unit value = { name; value; unit; samples } in
  let setup name =
    m ~samples:setups ("setup." ^ name ^ "_s") "s" (median (List.map (fun r -> get_f r (name ^ "_s")) setup_rows))
  in
  let overhead_pct, overhead_slices = overhead in
  let n = int_of_float reqs and nw = Hashtbl.length acked in
  [
    m ~samples:(count "wire.parse") "wire.parse_us" "us" (med "wire.parse");
    m ~samples:(count "wire.serialize") "wire.serialize_us" "us" (med "wire.serialize");
    m ~samples:(count "router.build") "router.build_us" "us" (med "router.build");
    m ~samples:handled "app.handle_p50_us" "us" (percentile handle 0.5);
    m ~samples:handled "app.handle_p99_us" "us" (percentile handle 0.99);
    m ~samples:(List.length overhead_us) "server.overhead_us" "us" (median overhead_us);
    m ~samples:n "server.shed" "count" (d "shed");
    m ~samples:n "server.parse_errors" "count" (d "parse_errors");
    m ~samples:n "server.timeouts" "count" (d "timeouts");
    m ~samples:n "enforce.checks_per_req" "count/req" (checks /. reqs);
    m ~samples:n "enforce.hit_ratio" "ratio" (ratio (d "enforce_hits") checks);
    m ~samples:n "enforce.elisions_per_req" "count/req" (per_req "elisions");
    m ~samples:n "enforce.pushdowns_per_req" "count/req" (per_req "pushdowns");
  ]
  @ List.concat_map
      (fun ep ->
        [
          m ~samples:Server_proc.probe_reps ("conn.query_ms." ^ ep) "ms" (med ("conn.query." ^ ep) /. 1e3);
          m ~samples:Server_proc.probe_reps ("db.exec_ms." ^ ep) "ms" (med ("db.exec." ^ ep) /. 1e3);
        ])
      [ "view"; "aggregates"; "employer"; "retrain" ]
  @ [
      m ~samples:n "db.statements_per_req" "count/req" (per_req "statements");
      m ~samples:sandbox_runs "sandbox.setup_ms" "ms" (sbx "sandbox.setup");
      m ~samples:sandbox_runs "sandbox.copy_in_ms" "ms" (sbx "sandbox.copy_in");
      m ~samples:sandbox_runs "sandbox.exec_ms" "ms" (sbx "sandbox.exec");
      m ~samples:sandbox_runs "sandbox.copy_out_ms" "ms" (sbx "sandbox.copy_out");
      m ~samples:acquired "sandbox.reuse_ratio" "ratio" (ratio (delta s0 s1 "pool_reused") (delta s0 s1 "pool_acquired"));
      m ~samples:acquired "sandbox.poisoned" "count" (delta s0 s1 "pool_poisoned");
      m ~samples:nw "wal.appends_per_write" "count/write" (wal "wal.appends" /. writes);
      m ~samples:nw "wal.fsyncs_per_write" "count/write" (wal "wal.fsyncs" /. (writes -. checkpoints));
      m ~samples:nw "wal.coalesce_ratio" "ratio" (ratio (wal "wal.appends" -. checkpoints) (wal "wal.flushes"));
      m ~samples:nw "wal.checkpoints_per_kwrite" "count/kwrite" (1e3 *. checkpoints /. writes);
      m ~samples:(Array.length write_lat) "write.ack_p50_ms" "ms" (percentile write_lat 0.5);
      m ~samples:(Array.length write_lat) "write.ack_p99_ms" "ms" (percentile write_lat 0.99);
      m ~samples:gc_reqs "gc.minor_words_per_req" "words/req" (per_gc_req "minor_words");
      m ~samples:gc_reqs "gc.major_per_kreq" "count/kreq" (1e3 *. per_gc_req "major_collections");
      m ~samples:gc_reqs "gc.top_heap_mb" "MB" (get_f g1 "top_heap_words" *. 8.0 /. 1e6);
      setup "preflight";
      setup "create";
      setup "seed";
      setup "expect";
      m ~samples:overhead_slices "trace.overhead_pct" "%" overhead_pct;
    ]

(* ------------------------------------------------------------------ *)

(* [cores] is the host's core count: this process may be pinned to fewer. *)
let run ~exe ~workload ~seed ~seconds ~trace ~work ~commit ~cores =
  let wl = W.make ~name:workload ~seed in
  let data_dir = Filename.concat work "data" in
  Printf.printf "sesame perfbench: workload=%s seed=%d seconds=%g trace=%b\n" workload seed seconds trace;
  Printf.printf "host: cores=%d ocaml=%s commit=%s\n" cores Sys.ocaml_version commit;
  Printf.printf
    "layout: server process with %d handler domain, %d closed-loop connection, sandbox budget %d bytes, \
     write share %.0f%%\n%!"
    Server_proc.handler_domains connections Fixture.train_mem_budget (100.0 *. wl.W.write_share);
  let current = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter kill !current)
    (fun () ->
      (* Set up [setups] times; the last server stays up for the run. *)
      let setup_once () =
        remove_tree data_dir;
        let t0 = now_ns () in
        let s = spawn ~exe ~data_dir in
        current := Some s;
        let conn = open_conn s.port in
        let t_ready = now_ns () in
        let expected, ok = expected_pass wl conn in
        let t1 = now_ns () in
        let setup_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
        let expect_s = Int64.to_float (Int64.sub t1 t_ready) /. 1e9 in
        (s, conn, expected, ok, setup_s, ("expect_s", Printf.sprintf "%.6f" expect_s) :: s.ready)
      in
      let rec setup_all i acc =
        let s, conn, expected, ok, setup_s, row = setup_once () in
        let acc = (ok, setup_s, row) :: acc in
        if i < setups then begin
          close_conn conn;
          stop s;
          current := None;
          setup_all (i + 1) acc
        end
        else (s, conn, expected, List.rev acc)
      in
      let s, conn, expected, setup_runs = setup_all 1 [] in
      let setup_ok = List.for_all (fun (ok, _, _) -> ok) setup_runs in
      let setup_s = median (List.map (fun (_, t, _) -> t) setup_runs) in
      let setup_rows = List.map (fun (_, _, r) -> r) setup_runs in
      let answers_start = W.students * W.questions in
      let stream = W.stream wl ~seed in
      let finish ~correct ~attempted ~failed metrics ~tally ~answers_end =
        List.iter
          (fun (cls, l) ->
            let a = sorted l in
            Printf.printf "  class %-22s n=%-7d p50 %.3f ms  p99 %.3f ms\n" cls (Array.length a) (percentile a 0.5)
              (percentile a 0.99))
          (List.sort compare tally.by_class);
        List.iter (fun (cls, n) -> Printf.printf "  FAILED %s x%d\n" cls n) tally.failed_classes;
        Printf.printf "answers table: %d rows at start, %d at end; writes acknowledged %d\n" answers_start answers_end
          tally.writes_acked;
        print_result ~correct ~attempted ~failed metrics;
        if not correct then exit 1
      in
      if not trace then begin
        let tally, elapsed, slices = window wl conn expected stream ~seconds ~pid:s.pid () in
        let n = List.length tally.latencies in
        let size = if n / chunk <= 1 then n else chunk in
        let beyond = size - int_of_float (Float.ceil (0.99 *. float_of_int size)) in
        Printf.printf
          "window %.3fs: %d attempted, %d passed; latency over %d chunks of %d, p99 leaves %d samples beyond it \
           in each\n"
          elapsed tally.attempted tally.passed (max 1 (n / chunk)) size beyond;
        let slices = rated slices in
        if beyond < 10 then print_endline "too few samples: the p99 must leave at least 10 beyond it";
        Printf.printf "slices (goodput 1/s): %s\n"
          (String.concat " " (List.map (fun sl -> Printf.sprintf "%.0f" (slice_goodput sl)) slices));
        let rss = peak_rss_mb s.pid in
        close_conn conn;
        stop s;
        current := None;
        let recovered, answers_end = recovery_check wl ~data_dir in

        let failed = tally.attempted - tally.passed in
        let e2e =
          [
            {
              name = "goodput_rps";
              value = slow_rate (List.map slice_goodput slices);
              unit = "1/s";
              samples = List.length slices;
            };
            { name = "latency_p50_ms"; value = chunked_percentile tally.latencies 0.5; unit = "ms"; samples = n };
            { name = "latency_p99_ms"; value = chunked_percentile tally.latencies 0.99; unit = "ms"; samples = n };
            {
              name = "success_share";
              value = float_of_int tally.passed /. float_of_int (max 1 tally.attempted);
              unit = "ratio";
              samples = tally.attempted;
            };
            {
              name = "cpu_ms_per_success";
              value = slow_cost (List.map (fun sl -> sl.cpu_ms /. float_of_int sl.passed) slices);
              unit = "ms";
              samples = List.length slices;
            };
            { name = "rss_peak_mb"; value = rss; unit = "MB"; samples = 1 };
            { name = "setup_s"; value = setup_s; unit = "s"; samples = setups };
          ]
        in
        finish
          ~correct:(setup_ok && recovered && failed = 0 && beyond >= 10)
          ~attempted:tally.attempted ~failed e2e ~tally ~answers_end
      end
      else begin
        (* Traced run: an untraced half-window, which the GC counters come
           from, then a half-window that alternates traced and untraced
           1 s slices. The spans come from its traced slices, the tracing
           overhead from its traced against its untraced slices. *)
        let half = seconds /. 2.0 in
        let g0 = kv (command s "mark") in
        let untraced, _, _ = window wl conn expected stream ~seconds:half ~pid:s.pid () in
        let g1 = kv (command s "mark") in
        let rec_ = Spans.create_from Spans.client_ids in
        let switch on = ignore (command s (if on then "trace on" else "trace off")) in
        let m0 = kv (command s "mark") in
        (* at least one slice of each kind *)
        let traced, _, slices =
          window wl conn expected stream ~seconds:(Float.max 2.0 half) ~pid:s.pid ~alternate:(switch, rec_) ()
        in
        let m1 = kv (command s "mark") in
        let goodput on =
          let l = List.filter (fun sl -> sl.traced = on) (rated slices) in
          (median (List.map slice_goodput l), List.length l)
        in
        let traced_goodput, n_traced = goodput true and untraced_goodput, n_untraced = goodput false in
        let overhead_pct =
          if n_traced > 0 && n_untraced > 0 then 100.0 *. (untraced_goodput -. traced_goodput) /. untraced_goodput
          else 0.0
        in
        (* Layers this workload leaves idle are measured by probes after
           the window, with tracing on: consent toggles (each flipped
           twice, so the state is unchanged) for the WAL, and direct
           Retrains for the sandbox. *)
        switch true;
        let write_ids, write_latencies =
          if traced.writes_acked > 0 then (traced.write_ids, untraced.write_latencies)
          else begin
            let probe = new_tally () in
            for i = 0 to 19 do
              send wl conn expected probe ~spans:rec_ (W.consent_toggle_of wl.W.model (i mod 10))
            done;
            if probe.passed <> probe.attempted then fail traced "probe.write";
            (probe.write_ids, probe.write_latencies)
          end
        in
        let sandbox_probe = traced.retrains = 0 in
        let p0 = kv (command s "mark") in
        ignore (command s (if sandbox_probe then "probe sandbox" else "probe nosandbox"));
        let p1 = kv (command s "mark") in
        (* one span file per workload: the server truncates it, the client appends *)
        let spans_path = Filename.concat work (Printf.sprintf "spans-%s.tsv" workload) in
        ignore (command s ("spans " ^ spans_path));
        let oc = open_out_gen [ Open_append ] 0o644 spans_path in
        Spans.write_channel oc rec_;
        close_out oc;
        close_conn conn;
        stop s;
        current := None;
        let recovered, answers_end = recovery_check wl ~data_dir in
        let records = Spans.read_file spans_path in
        Printf.printf
          "span file %s: %d records; tracing overhead %.2f%% (median goodput %.1f over %d untraced slices, %.1f \
           over %d traced)\n"
          spans_path (List.length records) overhead_pct untraced_goodput n_untraced traced_goodput n_traced;
        let metrics =
          per_layer ~records
            ~counters:(m0, m1, traced.attempted)
            ~gc:(g0, g1, untraced.attempted)
            ~overhead:(overhead_pct, n_traced + n_untraced)
            ~write_ids ~write_latencies
            ~sandbox_marks:(if sandbox_probe then (p0, p1) else (m0, m1))
            ~setup_rows
        in
        let attempted = untraced.attempted + traced.attempted in
        let failed = attempted - untraced.passed - traced.passed in
        let all_failed = { traced with failed_classes = untraced.failed_classes @ traced.failed_classes } in
        finish
          ~correct:(setup_ok && recovered && failed = 0 && traced.failed_classes = [])
          ~attempted ~failed metrics ~tally:all_failed ~answers_end
      end)
