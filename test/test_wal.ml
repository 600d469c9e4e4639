(* The crash-point matrix for the durable policy store (lib/wal).

   Covers the physical layer (torn tails at every byte offset of the
   log, mid-log corruption, CRC-valid-but-undecodable frames), the
   logical layer (replay of insert/update/delete/create, LSN-based
   checkpoint idempotency, one write per acknowledged statement), and the
   fail-closed recovery contract: a store that cannot prove every row's
   policy — unknown constructor, schema drift, non-replaying statement —
   refuses to open and quarantines the directory. *)

module Db = Sesame_db
module W = Sesame_wal

let test name f = Alcotest.test_case name `Quick f
let check_int msg = Alcotest.(check int) msg
let check_bool msg = Alcotest.(check bool) msg
let check_str msg = Alcotest.(check string) msg

(* ------------------------------------------------------------------ *)
(* Fixture: a notes table with a one-leaf provenance per column *)

let ctor = "test::note-owner"

let notes_schema =
  Db.Schema.make_exn ~name:"notes" ~primary_key:"id"
    [
      { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false };
      { Db.Schema.name = "owner"; ty = Db.Value.Ttext; nullable = false };
      { Db.Schema.name = "note"; ty = Db.Value.Ttext; nullable = false };
    ]

(* Row-dependent parameter rendering, as a real policy family would do:
   an INSERT journals the owner the policy binds to, an UPDATE/DELETE
   only the family. *)
let provenance ~schema:_ ~column ~row =
  let param =
    match row with
    | Some row -> Db.Value.to_string row.(1)
    | None -> "*"
  in
  [ { W.Provenance.ctor; param = column ^ ":" ^ param } ]

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sesame-wal-%d-%d" (Unix.getpid ()) !counter)
    in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    dir

let no_ckpt = { W.Durable.sync = W.Durable.Fsync; checkpoint_every = None }

let open_store ?(config = no_ckpt) dir =
  W.Provenance.reset ();
  W.Provenance.register ctor;
  W.Durable.open_store ~config ~provenance ~dir ()

let open_store_exn ?config dir =
  match open_store ?config dir with
  | Ok t -> t
  | Error e -> Alcotest.failf "open_store: %s" (W.Durable.error_message e)

let insert t i =
  match
    Db.Database.exec (W.Durable.db t) "INSERT INTO notes VALUES (?, ?, ?)"
      ~params:
        [
          Db.Value.Int i;
          Db.Value.Text (Printf.sprintf "user%d@example.com" (i mod 3));
          Db.Value.Text (Printf.sprintf "note-%d" i);
        ]
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "insert %d: %s" i m

let seeded ?config ~n dir =
  let t = open_store_exn ?config dir in
  (match Db.Database.create_table (W.Durable.db t) notes_schema with
  | Ok () -> ()
  | Error m -> Alcotest.failf "create notes: %s" m);
  for i = 1 to n do
    insert t i
  done;
  t

let count t =
  match Db.Database.table (W.Durable.db t) "notes" with
  | None -> -1
  | Some tbl -> Db.Table.length tbl

let rows t = Db.Table.to_list (Db.Database.table_exn (W.Durable.db t) "notes")

let close_exn t =
  match W.Durable.close t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "close: %s" m

let wal_path dir = Filename.concat dir "wal"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size

(* Appends one complete, CRC-valid frame outside the writer — the tool
   for planting adversarial records. *)
let append_raw_frame path payload =
  let buf = Buffer.create (8 + String.length payload) in
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_int32_le buf (Db.Bincodec.crc32 payload);
  Buffer.add_string buf payload;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf)

(* The redo log's on-disk header, spelled out so a change to it fails
   here. *)
let wal_magic = "SSMWAL01"

let scan_exn path =
  match W.Wal.scan ~magic:wal_magic path with
  | Ok v -> v
  | Error m -> Alcotest.failf "scan %s: %s" path m

(* ------------------------------------------------------------------ *)
(* Logical replay *)

let reopen_replays () =
  let dir = fresh_dir () in
  let t = seeded ~n:5 dir in
  let rows_before = rows t in
  let lsn_before = W.Durable.next_lsn t in
  close_exn t;
  let t' = open_store_exn dir in
  check_int "rows recovered" 5 (count t');
  check_int "replayed create + 5 inserts" 6 (W.Durable.replayed t');
  check_bool "rows byte-identical" true (rows t' = rows_before);
  check_bool "LSN sequence continues" true (W.Durable.next_lsn t' = lsn_before);
  insert t' 6;
  check_int "writes resume after recovery" 6 (count t');
  close_exn t'

let update_delete_replay () =
  let dir = fresh_dir () in
  let t = seeded ~n:3 dir in
  let db = W.Durable.db t in
  (match
     Db.Database.exec db "UPDATE notes SET note = ? WHERE id = ?"
       ~params:[ Db.Value.Text "edited"; Db.Value.Int 1 ]
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "update: %s" m);
  (match
     Db.Database.exec db "DELETE FROM notes WHERE id = ?" ~params:[ Db.Value.Int 3 ]
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "delete: %s" m);
  let rows_before = rows t in
  close_exn t;
  let t' = open_store_exn dir in
  check_int "two rows left" 2 (count t');
  check_bool "update and delete replayed" true (rows t' = rows_before);
  close_exn t'

let checkpoint_resets_log () =
  let dir = fresh_dir () in
  let t = seeded ~n:5 dir in
  (match W.Durable.checkpoint t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "checkpoint: %s" m);
  check_int "WAL reset to its header" (String.length wal_magic) (file_size (wal_path dir));
  check_bool "checkpoint file published" true
    (Sys.file_exists (Filename.concat dir W.Checkpoint.file));
  for i = 6 to 8 do
    insert t i
  done;
  close_exn t;
  let t' = open_store_exn dir in
  check_int "checkpoint + tail recovered" 8 (count t');
  check_int "only the tail replayed" 3 (W.Durable.replayed t');
  check_bool "checkpoint LSN restored" true (W.Durable.checkpoint_lsn t' > 0L);
  close_exn t'

(* A crash between checkpoint publication and WAL reset leaves the old
   log alongside the new checkpoint. Replay must skip every record the
   snapshot already covers — recovering duplicates would violate the
   primary key, or worse, silently double rows without one. *)
let checkpoint_idempotent () =
  let dir = fresh_dir () in
  let t = seeded ~n:3 dir in
  let old_log = read_file (wal_path dir) in
  (match W.Durable.checkpoint t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "checkpoint: %s" m);
  close_exn t;
  write_file (wal_path dir) old_log;
  let t' = open_store_exn dir in
  check_int "no duplicate rows" 3 (count t');
  check_int "covered records skipped, not replayed" 0 (W.Durable.replayed t');
  insert t' 4;
  check_int "writes continue" 4 (count t');
  close_exn t'

(* Every acknowledged statement is written (and, under Fsync, fsynced)
   before it returns: the file grows after each statement, with no close
   in between, and each frame costs exactly one write. The tables are
   created before a reopen so the writer's counters cover only the three
   statements, which span both tables. *)
let own_write_per_statement () =
  let audit_schema =
    Db.Schema.make_exn ~name:"audit" ~primary_key:"id"
      [
        { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false };
        { Db.Schema.name = "note"; ty = Db.Value.Ttext; nullable = false };
      ]
  in
  List.iter
    (fun (sync, fsyncs) ->
      let dir = fresh_dir () in
      let t = open_store_exn dir in
      List.iter
        (fun schema ->
          match Db.Database.create_table (W.Durable.db t) schema with
          | Ok () -> ()
          | Error m -> Alcotest.failf "create: %s" m)
        [ notes_schema; audit_schema ];
      close_exn t;
      let t = open_store_exn ~config:{ no_ckpt with W.Durable.sync } dir in
      let statement sql params =
        let before = file_size (wal_path dir) in
        (match Db.Database.exec (W.Durable.db t) sql ~params with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "%s: %s" sql m);
        check_bool (sql ^ " grew the log") true (file_size (wal_path dir) > before)
      in
      statement "INSERT INTO notes VALUES (?, ?, ?)"
        [ Db.Value.Int 1; Db.Value.Text "user1@example.com"; Db.Value.Text "note-1" ];
      statement "INSERT INTO audit VALUES (?, ?)" [ Db.Value.Int 1; Db.Value.Text "created" ];
      statement "UPDATE notes SET note = ? WHERE id = ?" [ Db.Value.Text "edited"; Db.Value.Int 1 ];
      let { W.Durable.appended; flushes; fsyncs = synced } = W.Durable.commit_stats t in
      check_int "three frames" 3 appended;
      check_int "one write per frame" 3 flushes;
      check_int "fsyncs" fsyncs synced;
      close_exn t)
    [ (W.Durable.Fsync, 3); (W.Durable.No_sync, 0) ]

(* Every auto-checkpoint reopens the log with a fresh writer; the
   store's commit counters must run on across them, not restart. *)
let counters_span_checkpoints () =
  let dir = fresh_dir () in
  close_exn (seeded ~n:0 dir);
  let t = open_store_exn ~config:{ no_ckpt with W.Durable.checkpoint_every = Some 2 } dir in
  for i = 1 to 5 do
    insert t i
  done;
  check_bool "checkpoints ran" true (W.Durable.checkpoint_lsn t >= 4L);
  let { W.Durable.appended; flushes; fsyncs } = W.Durable.commit_stats t in
  check_int "appended" 5 appended;
  check_int "flushes" 5 flushes;
  check_int "fsyncs" 5 fsyncs;
  close_exn t

(* ------------------------------------------------------------------ *)
(* The torn-tail matrix: truncate the log at every byte offset — every
   possible residue of a crash mid-write — and reopen. Exactly the
   frames that are fully on disk must come back; the torn residue is
   cut away and the repaired log ends clean. *)

let torn_tail_matrix () =
  let build = fresh_dir () in
  let t = seeded ~n:4 build in
  close_exn t;
  let pristine = read_file (wal_path build) in
  let records, valid_end, tail = scan_exn (wal_path build) in
  (match tail with
  | W.Wal.Clean -> ()
  | W.Wal.Torn _ -> Alcotest.fail "pristine log reported torn");
  let offsets = List.map (fun (r : W.Wal.record) -> r.offset) records in
  (* Byte offset just past each frame: a cut at or beyond it keeps the
     frame; any shorter cut tears it. *)
  let ends =
    match offsets with [] -> [] | _ :: rest -> rest @ [ valid_end ]
  in
  let total = String.length pristine in
  check_int "clean log ends at valid_end" total valid_end;
  let complete cut = List.length (List.filter (fun e -> e <= cut) ends) in
  for cut = 0 to total do
    begin
      let dir = fresh_dir () in
      write_file (wal_path dir) (String.sub pristine 0 cut);
      let t =
        match open_store dir with
        | Ok t -> t
        | Error e ->
            Alcotest.failf "cut at byte %d: refused to open: %s" cut
              (W.Durable.error_message e)
      in
      let expected = complete cut in
      (* The create record counts as one frame; each surviving insert
         adds a row. *)
      let got =
        match Db.Database.table (W.Durable.db t) "notes" with
        | None -> 0
        | Some tbl -> 1 + Db.Table.length tbl
      in
      if got <> expected then
        Alcotest.failf "cut at byte %d: %d frames survived, expected %d" cut got
          expected;
      close_exn t;
      (* The repair physically removed the residue: the log now scans
         clean with exactly the surviving frames. *)
      let repaired, _, repaired_tail = scan_exn (wal_path dir) in
      (match repaired_tail with
      | W.Wal.Clean -> ()
      | W.Wal.Torn _ -> Alcotest.failf "cut at byte %d: repaired log still torn" cut);
      if List.length repaired <> expected then
        Alcotest.failf "cut at byte %d: repaired log holds %d frames, expected %d" cut
          (List.length repaired) expected;
      rm_rf dir
    end
  done

(* ------------------------------------------------------------------ *)
(* Fail-closed recovery: corruption and unprovable policies *)

let expect_refusal name dir result =
  match result with
  | Ok _ -> Alcotest.failf "%s: store opened over corrupt data" name
  | Error (W.Durable.Recovery_failed { reason; _ }) ->
      check_bool
        (Printf.sprintf "%s: directory quarantined" name)
        true
        (Sys.file_exists (Filename.concat dir "QUARANTINE"));
      reason

let midlog_corruption () =
  let dir = fresh_dir () in
  let t = seeded ~n:3 dir in
  close_exn t;
  let pristine = read_file (wal_path dir) in
  let records, _, _ = scan_exn (wal_path dir) in
  (* Flip one payload byte of a *middle* record: the frame is complete,
     so this is not a crash signature — it must refuse, not truncate. *)
  let victim = (List.nth records 1 : W.Wal.record).offset + 8 + 9 in
  let flipped = Bytes.of_string pristine in
  Bytes.set flipped victim (Char.chr (Char.code (Bytes.get flipped victim) lxor 0xFF));
  write_file (wal_path dir) (Bytes.to_string flipped);
  (match expect_refusal "bit flip" dir (open_store dir) with
  | W.Durable.Corrupt_record _ -> ()
  | reason ->
      Alcotest.failf "bit flip: expected Corrupt_record, got: %s"
        (W.Durable.reason_message reason));
  (* The marker alone now blocks opens, even though nothing re-scanned. *)
  (match expect_refusal "marker" dir (open_store dir) with
  | W.Durable.Quarantined _ -> ()
  | reason ->
      Alcotest.failf "marker: expected Quarantined, got: %s"
        (W.Durable.reason_message reason));
  (* Operator path: restore the bytes, lift the quarantine, recover. *)
  W.Durable.clear_quarantine ~dir;
  write_file (wal_path dir) pristine;
  let t' = open_store_exn dir in
  check_int "restored log recovers" 3 (count t');
  close_exn t'

(* A complete frame with a valid CRC whose payload does not decode is
   corruption too — a torn write cannot produce it. *)
let undecodable_frame () =
  let dir = fresh_dir () in
  let t = seeded ~n:2 dir in
  close_exn t;
  let tail_offset = file_size (wal_path dir) in
  append_raw_frame (wal_path dir) "garbage";
  match expect_refusal "undecodable" dir (open_store dir) with
  | W.Durable.Corrupt_record { offset; _ } ->
      check_int "error names the frame's offset" tail_offset offset
  | reason ->
      Alcotest.failf "undecodable: expected Corrupt_record, got: %s"
        (W.Durable.reason_message reason)

let unknown_policy () =
  let dir = fresh_dir () in
  let t = seeded ~n:2 dir in
  close_exn t;
  (* Same bytes, but the application forgot to register the family: the
     rows' policies cannot be reconstructed, so nothing loads. *)
  W.Provenance.reset ();
  (match expect_refusal "unknown ctor" dir (W.Durable.open_store ~config:no_ckpt ~provenance ~dir ()) with
  | W.Durable.Unknown_policy { ctor = c; table; _ } ->
      check_str "names the constructor" ctor c;
      check_str "names the table" "notes" table
  | reason ->
      Alcotest.failf "unknown ctor: expected Unknown_policy, got: %s"
        (W.Durable.reason_message reason));
  W.Durable.clear_quarantine ~dir;
  let t' = open_store_exn dir in
  check_int "recovers once the family is registered" 2 (count t');
  close_exn t'

let schema_drift () =
  let dir = fresh_dir () in
  let t = seeded ~n:1 dir in
  let lsn = W.Durable.next_lsn t in
  close_exn t;
  (* Plant a record journaled against a different schema hash. *)
  let w = Db.Bincodec.writer () in
  Db.Bincodec.put_i64 w lsn;
  Db.Bincodec.put_u8 w 1;
  Db.Bincodec.put_string w "notes";
  Db.Bincodec.put_u32 w 0xDEADBEEF;
  Db.Bincodec.put_stmt w
    (Db.Sql.Insert
       {
         table = "notes";
         columns = None;
         values = [ Db.Value.Int 9; Db.Value.Text "u"; Db.Value.Text "n" ];
       });
  Db.Bincodec.put_u32 w 0;
  append_raw_frame (wal_path dir) (Db.Bincodec.contents w);
  match expect_refusal "drift" dir (open_store dir) with
  | W.Durable.Schema_drift { table; _ } -> check_str "names the table" "notes" table
  | reason ->
      Alcotest.failf "drift: expected Schema_drift, got: %s"
        (W.Durable.reason_message reason)

(* A journaled statement the engine now rejects (here: a primary-key
   duplicate) means log and store semantics diverged — refuse. *)
let replay_rejected () =
  let dir = fresh_dir () in
  let t = seeded ~n:1 dir in
  let lsn = W.Durable.next_lsn t in
  close_exn t;
  let hash = Int32.to_int (Db.Bincodec.schema_hash notes_schema) land 0xFFFFFFFF in
  let w = Db.Bincodec.writer () in
  Db.Bincodec.put_i64 w lsn;
  Db.Bincodec.put_u8 w 1;
  Db.Bincodec.put_string w "notes";
  Db.Bincodec.put_u32 w hash;
  Db.Bincodec.put_stmt w
    (Db.Sql.Insert
       {
         table = "notes";
         columns = None;
         values = [ Db.Value.Int 1; Db.Value.Text "dup"; Db.Value.Text "dup" ];
       });
  Db.Bincodec.put_u32 w 0;
  append_raw_frame (wal_path dir) (Db.Bincodec.contents w);
  match expect_refusal "replay" dir (open_store dir) with
  | W.Durable.Replay_failed _ -> ()
  | reason ->
      Alcotest.failf "replay: expected Replay_failed, got: %s"
        (W.Durable.reason_message reason)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wal"
    [
      ( "durable",
        [
          test "reopen replays the log" reopen_replays;
          test "update and delete replay" update_delete_replay;
          test "checkpoint resets the log" checkpoint_resets_log;
          test "checkpoint covered records are skipped" checkpoint_idempotent;
          test "each acknowledged statement is its own write" own_write_per_statement;
          test "commit counters run across checkpoints" counters_span_checkpoints;
        ] );
      ("crash-matrix", [ test "torn tail truncated at every byte offset" torn_tail_matrix ]);
      ( "fail-closed",
        [
          test "mid-log corruption quarantines" midlog_corruption;
          test "CRC-valid undecodable frame refuses" undecodable_frame;
          test "unregistered policy constructor refuses" unknown_policy;
          test "schema drift refuses" schema_drift;
          test "rejected replay refuses" replay_rejected;
        ] );
    ]
