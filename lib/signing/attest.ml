(* The signed run-attestation log.

   Append-only, framed by {!Sesame_wal.Wal} (an [SSMATT01] magic
   header, then [u32 len | u32 crc | payload] little-endian frames),
   with every frame carrying an HMAC-style signature under the
   attestor's secret. Two frame kinds close the loop between static
   verdicts and runtime isolation: an [Approval] binds a region-body
   hash to the Scrutinizer verdict it was installed under, and a [Run]
   manifest binds one sandbox invocation to {body hash, verdict
   fingerprint, budgets, outcome, quota state, preflight report hash}.
   The verifier replays the log and fails on any run whose body hash has
   no approving verdict — or any frame whose CRC or signature does not
   check out. *)

module Wal = Sesame_wal.Wal

let magic = "SSMATT01"

let default_secret = "sesame-attestor-secret"
let default_signer = "sesame-attestor"

(* ------------------------------------------------------------------ *)
(* Frame payloads: tab-separated [key=value] pairs, values escaped so
   tabs/newlines cannot smuggle extra fields. The signature MAC covers
   the payload with its [mac=] field removed. *)

let escape s =
  if String.exists (fun c -> c = '%' || c = '\t' || c = '\n') s then begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '%' -> Buffer.add_string b "%25"
        | '\t' -> Buffer.add_string b "%09"
        | '\n' -> Buffer.add_string b "%0A"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end
  else s

let unescape s =
  if not (String.contains s '%') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '%' && !i + 2 < n then begin
         (match String.sub s (!i + 1) 2 with
         | "25" -> Buffer.add_char b '%'
         | "09" -> Buffer.add_char b '\t'
         | "0A" -> Buffer.add_char b '\n'
         | other ->
             Buffer.add_char b '%';
             Buffer.add_string b other);
         i := !i + 2
       end
       else Buffer.add_char b s.[!i]);
      incr i
    done;
    Buffer.contents b
  end

let render_fields fields =
  String.concat "\t" (List.map (fun (k, v) -> k ^ "=" ^ escape v) fields)

let parse_fields payload =
  String.split_on_char '\t' payload
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
             Some
               ( String.sub kv 0 i,
                 unescape (String.sub kv (i + 1) (String.length kv - i - 1)) )
         | None -> None)

type approval = {
  kind : string;  (* verified | sandboxed | critical *)
  body_hash : Sha256.t;
  verdict : string;  (* Scrutinizer verdict fingerprint *)
  at : int;
}

type manifest = {
  seq : int;
  region : string;
  run_body_hash : Sha256.t;
  run_verdict : string;
  budgets : string;
  outcome : string;  (* "ok" or the trap/denial class — never guest data *)
  quota : string;  (* the region's quota books when this run was recorded *)
  preflight : string;  (* hex hash of the pool's preflight report, or "none" *)
  run_at : int;
}

type frame = Approval of approval | Run of manifest

let approval_fields a =
  [
    ("type", "approval");
    ("kind", a.kind);
    ("body", Sha256.to_hex a.body_hash);
    ("verdict", a.verdict);
    ("at", string_of_int a.at);
  ]

let run_fields m =
  [
    ("type", "run");
    ("seq", string_of_int m.seq);
    ("region", m.region);
    ("body", Sha256.to_hex m.run_body_hash);
    ("verdict", m.run_verdict);
    ("budgets", m.budgets);
    ("outcome", m.outcome);
    ("quota", m.quota);
    ("preflight", m.preflight);
    ("at", string_of_int m.run_at);
  ]

let signed_payload ~secret ~signer ~at fields =
  let body = render_fields (fields @ [ ("signer", signer) ]) in
  let signature = Signature.sign ~secret ~reviewer:signer ~at (Sha256.digest_string body) in
  body ^ "\tmac=" ^ Sha256.to_hex signature.Signature.mac

(* ------------------------------------------------------------------ *)
(* Recorder *)

type recorder = {
  secret : string;
  signer : string;
  writer : Wal.writer;
  lock : Lockfile.File_lock.held;
  mutex : Mutex.t;
  seq : int Atomic.t;
  mutable closed : bool;
}

let create_recorder ?(fsync = false) ?(secret = default_secret) ?(signer = default_signer)
    ?(warn = Lockfile.File_lock.default_warn) path =
  match Lockfile.File_lock.acquire ~warn (path ^ ".lock") with
  | Error e ->
      Error (Printf.sprintf "attest %s: %s" path (Lockfile.File_lock.error_message e))
  | Ok lock -> (
      let size =
        match Unix.stat path with
        | st -> st.Unix.st_size
        | exception Unix.Unix_error _ -> 0
      in
      (* A crash mid-append leaves a torn last frame; new frames must
         start on the last whole frame's boundary, or they sit behind the
         tear and the log reads as mid-log corruption. A tear inside the
         magic header means creation itself crashed: start fresh. The
         cut is reported, since a corrupt length field mid-log reads as
         a tear too and cuts every later frame. As in the store's
         recovery, a CRC mismatch in a whole frame is not repaired: the
         recorder refuses the log. *)
      let repaired () =
        if size = 0 then Wal.create ~magic path
        else
          match Wal.scan ~magic path with
          | Error _ as e -> e
          | Ok (_, _, Wal.Clean) -> Ok ()
          | Ok (_, valid_end, Wal.Torn _) ->
              warn
                (Printf.sprintf "attest %s: cutting a torn tail of %d bytes at offset %d" path
                   (size - valid_end) valid_end);
              if valid_end < String.length magic then Wal.create ~magic path
              else Wal.truncate path valid_end
      in
      let opened =
        Result.bind (repaired ())
          (fun () ->
            Wal.open_writer ~append_seam:Sesame_faults.Attest_append
              ~fsync_seam:Sesame_faults.Attest_fsync ~sync:fsync path)
      in
      match opened with
      | Ok writer ->
          Ok
            {
              secret;
              signer;
              writer;
              lock;
              mutex = Mutex.create ();
              seq = Atomic.make 0;
              closed = false;
            }
      | Error e ->
          Lockfile.File_lock.release lock;
          Error (Printf.sprintf "attest %s: %s" path e))

let close_recorder r =
  Mutex.lock r.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock r.mutex)
    (fun () ->
      if not r.closed then begin
        r.closed <- true;
        ignore (Wal.close r.writer : (unit, string) result);
        Lockfile.File_lock.release r.lock
      end)

(* Every append hits the [attest-append] seam before anything is
   written, and (with [fsync]) [attest-fsync] between write and flush:
   an injected fault at either leaves the caller with an error it must
   convert into a denial — a run that cannot be attested must not be
   served. *)
let append_frame r fields ~at =
  Mutex.lock r.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock r.mutex)
    (fun () ->
      if r.closed then Error "attestation log is closed"
      else
        match Wal.append r.writer (signed_payload ~secret:r.secret ~signer:r.signer ~at fields) with
        | Ok () -> Ok ()
        | Error e -> Error ("attest append: " ^ e)
        | exception Sesame_faults.Injected { point; action; _ } ->
            Error (Sesame_faults.injected_message point action))

let now_unix () = int_of_float (Unix.gettimeofday ())

let append_approval r ~kind ~body_hash ~verdict =
  let at = now_unix () in
  append_frame r (approval_fields { kind; body_hash; verdict; at }) ~at

let append_run r ~region ~body_hash ~verdict ~budgets ~outcome ~quota ~preflight =
  let at = now_unix () in
  let seq = 1 + Atomic.fetch_and_add r.seq 1 in
  append_frame r
    (run_fields
       {
         seq;
         region;
         run_body_hash = body_hash;
         run_verdict = verdict;
         budgets;
         outcome;
         quota;
         preflight;
         run_at = at;
       })
    ~at

(* ------------------------------------------------------------------ *)
(* The ambient recorder: installed once at boot (bench serve, the demo
   with [--attest-log]); regions consult it at make and per run. *)

let ambient : recorder option Atomic.t = Atomic.make None

let install r = Atomic.set ambient (Some r)

let uninstall () = Atomic.set ambient None

let current () = Atomic.get ambient

(* ------------------------------------------------------------------ *)
(* Verifier *)

type verify_summary = {
  approvals : int;
  runs : int;
  distinct_bodies : int;
  torn_tail : bool;  (** an incomplete trailing frame was ignored *)
}

let field fields k = List.assoc_opt k fields

let verify_payload ~secret ~offset payload =
  let fields = parse_fields payload in
  match (field fields "type", field fields "signer", field fields "at", field fields "mac") with
  | None, _, _, _ -> Error (Printf.sprintf "frame at %d: no type" offset)
  | _, None, _, _ | _, _, None, _ | _, _, _, None ->
      Error (Printf.sprintf "frame at %d: missing signature fields" offset)
  | Some ty, Some signer, Some at, Some mac -> (
      match (int_of_string_opt at, Sha256.of_hex mac) with
      | None, _ | _, None -> Error (Printf.sprintf "frame at %d: malformed signature fields" offset)
      | Some at, Some mac -> (
          match String.index_opt payload '\t' with
          | None -> Error (Printf.sprintf "frame at %d: malformed payload" offset)
          | Some _ -> (
              (* The MAC covers everything before the trailing "\tmac=…". *)
              let suffix = "\tmac=" in
              match
                let rec find i =
                  if i < 0 then None
                  else if
                    i + String.length suffix <= String.length payload
                    && String.sub payload i (String.length suffix) = suffix
                  then Some i
                  else find (i - 1)
                in
                find (String.length payload - 1)
              with
              | None -> Error (Printf.sprintf "frame at %d: unsigned" offset)
              | Some cut ->
                  let body = String.sub payload 0 cut in
                  let signature =
                    {
                      Signature.reviewer = signer;
                      signed_at = at;
                      digest = Sha256.digest_string body;
                      mac;
                    }
                  in
                  if Signature.verifies_with ~secret signature then Ok (ty, fields)
                  else Error (Printf.sprintf "frame at %d: signature does not verify" offset))))

let parse_frame ~secret ~offset payload =
  match verify_payload ~secret ~offset payload with
  | Error _ as e -> e
  | Ok (ty, fields) -> (
      let need k =
        match field fields k with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "frame at %d: missing %s" offset k)
      in
      let ( let* ) = Result.bind in
      match ty with
      | "approval" ->
          let* kind = need "kind" in
          let* body = need "body" in
          let* verdict = need "verdict" in
          let* at = need "at" in
          let* body_hash =
            Option.to_result ~none:(Printf.sprintf "frame at %d: bad body hash" offset)
              (Sha256.of_hex body)
          in
          let* at =
            Option.to_result ~none:(Printf.sprintf "frame at %d: bad at" offset)
              (int_of_string_opt at)
          in
          Ok (Approval { kind; body_hash; verdict; at })
      | "run" ->
          let* seq = need "seq" in
          let* region = need "region" in
          let* body = need "body" in
          let* verdict = need "verdict" in
          let* budgets = need "budgets" in
          let* outcome = need "outcome" in
          let* quota = need "quota" in
          let* preflight = need "preflight" in
          let* at = need "at" in
          let* run_body_hash =
            Option.to_result ~none:(Printf.sprintf "frame at %d: bad body hash" offset)
              (Sha256.of_hex body)
          in
          let* seq =
            Option.to_result ~none:(Printf.sprintf "frame at %d: bad seq" offset)
              (int_of_string_opt seq)
          in
          let* run_at =
            Option.to_result ~none:(Printf.sprintf "frame at %d: bad at" offset)
              (int_of_string_opt at)
          in
          Ok
            (Run
               {
                 seq;
                 region;
                 run_body_hash;
                 run_verdict = verdict;
                 budgets;
                 outcome;
                 quota;
                 preflight;
                 run_at;
               })
      | other -> Error (Printf.sprintf "frame at %d: unknown type %S" offset other))

(* A partial header (a crash while creating the log) is a bad magic
   here, not a torn tail: a log with no header holds no frames to
   vouch for. *)
let read_frames ~secret path =
  match Wal.scan ~magic path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok (_, valid_end, _) when valid_end < String.length magic ->
      Error (Printf.sprintf "%s: bad magic header" path)
  | Ok (records, _, tail) ->
      let rec parse acc = function
        | [] -> Ok (List.rev acc, match tail with Wal.Clean -> false | Wal.Torn _ -> true)
        | { Wal.offset; payload } :: rest -> (
            match parse_frame ~secret ~offset payload with
            | Error _ as e -> e
            | Ok frame -> parse (frame :: acc) rest)
      in
      parse [] records

(* Replay: collect the approved body-hash set, then demand every run's
   body hash be in it. A torn trailing frame (crash mid-append) is
   tolerated and reported; a CRC or signature failure anywhere is not. *)
let verify ?(secret = default_secret) path =
  match read_frames ~secret path with
  | Error _ as e -> e
  | Ok (frames, torn_tail) ->
      let approved = Hashtbl.create 16 in
      let bodies = Hashtbl.create 16 in
      let approvals = ref 0 in
      let runs = ref 0 in
      let err = ref None in
      List.iter
        (fun frame ->
          if !err = None then
            match frame with
            | Approval a ->
                incr approvals;
                Hashtbl.replace approved (Sha256.to_hex a.body_hash) a.verdict
            | Run m ->
                incr runs;
                let hex = Sha256.to_hex m.run_body_hash in
                Hashtbl.replace bodies hex ();
                if not (Hashtbl.mem approved hex) then
                  err :=
                    Some
                      (Printf.sprintf
                         "run #%d (region %s) has no approving verdict for body %s" m.seq
                         m.region (String.sub hex 0 12)))
        frames;
      (match !err with
      | Some e -> Error e
      | None ->
          Ok
            {
              approvals = !approvals;
              runs = !runs;
              distinct_bodies = Hashtbl.length bodies;
              torn_tail;
            })

let frames ?(secret = default_secret) path =
  Result.map fst (read_frames ~secret path)
