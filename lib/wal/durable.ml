module Db = Sesame_db.Database
module Table = Sesame_db.Table
module Schema = Sesame_db.Schema
module Sql = Sesame_db.Sql
module B = Sesame_db.Bincodec

type sync_mode = No_sync | Fsync

type config = { sync : sync_mode; checkpoint_every : int option }

let default_config = { sync = Fsync; checkpoint_every = Some 256 }

let wal_magic = "SSMWAL01"

let open_wal ~sync path =
  Wal.open_writer ~append_seam:Sesame_faults.Db_wal_append ~fsync_seam:Sesame_faults.Db_wal_fsync
    ~sync:(sync = Fsync) path

type reason =
  | Quarantined of string
  | Corrupt_checkpoint of string
  | Corrupt_record of { offset : int; detail : string }
  | Unknown_policy of { lsn : int64; table : string; ctor : string }
  | Schema_drift of { lsn : int64; table : string; expected : int32; found : int32 }
  | Replay_failed of { lsn : int64; detail : string }

type error = Recovery_failed of { dir : string; reason : reason }

let reason_message = function
  | Quarantined detail -> Printf.sprintf "directory is quarantined: %s" detail
  | Corrupt_checkpoint detail -> Printf.sprintf "corrupt checkpoint: %s" detail
  | Corrupt_record { offset; detail } ->
      Printf.sprintf "corrupt WAL record at offset %d: %s" offset detail
  | Unknown_policy { lsn; table; ctor } ->
      Printf.sprintf
        "record %Ld (table %s) journals policy constructor %s, which is not registered: \
         the row's policy cannot be reconstructed"
        lsn table ctor
  | Schema_drift { lsn; table; expected; found } ->
      Printf.sprintf
        "record %Ld journals schema hash %08lx for table %s but the recovered schema \
         hashes to %08lx"
        lsn expected table found
  | Replay_failed { lsn; detail } ->
      Printf.sprintf "record %Ld no longer replays: %s" lsn detail

let error_message (Recovery_failed { dir; reason }) =
  Printf.sprintf "recovery of %s failed closed: %s" dir (reason_message reason)

type provenance_fn =
  schema:Schema.t -> column:string -> row:Sesame_db.Row.t option -> Provenance.leaf list

type commit_stats = {
  appended : int;  (* frames journaled *)
  flushes : int;  (* frame writes completed *)
  fsyncs : int;
}

type t = {
  dir : string;
  db : Db.t;
  config : config;
  provenance : provenance_fn;
  mutable writer : Wal.writer option;
  mutable retired : commit_stats;  (* counts of the writers checkpoints or [close] retired *)
  mutable next_lsn : int64;
  mutable ckpt_lsn : int64;
  mutable since_ckpt : int;
  mutable replayed : int;
  mutable last_ckpt_error : string option;
}

let db t = t.db
let dir t = t.dir
let next_lsn t = t.next_lsn
let checkpoint_lsn t = t.ckpt_lsn
let replayed t = t.replayed
let last_checkpoint_error t = t.last_ckpt_error

let wal_path t = Filename.concat t.dir "wal"
let quarantine_path dir = Filename.concat dir "QUARANTINE"

let clear_quarantine ~dir =
  try Sys.remove (quarantine_path dir) with Sys_error _ -> ()

(* Best effort: the structured error is authoritative; the marker only
   has to make the *next* open refuse. *)
let write_quarantine dir reason =
  try
    let oc = open_out_bin (quarantine_path dir) in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (reason_message reason ^ "\n"))
  with Sys_error _ -> ()

(* {1 Record encoding}

   payload := i64 lsn | u8 kind | body
   kind 1, stmt:   body := table | u32 schema_hash | stmt
                           | u32 ncols | ncols x [column | u32 nleaves | nleaves x [ctor | param]]
   kind 2, create: body := schema
   kind 3, drop:   body := table name *)

let u32_of_hash h = Int32.to_int h land 0xFFFFFFFF

let encode_stmt_record ~lsn ~table ~schema_hash ~stmt ~prov =
  let w = B.writer () in
  B.put_i64 w lsn;
  B.put_u8 w 1;
  B.put_string w table;
  B.put_u32 w (u32_of_hash schema_hash);
  B.put_stmt w stmt;
  B.put_u32 w (List.length prov);
  List.iter
    (fun (column, leaves) ->
      B.put_string w column;
      B.put_u32 w (List.length leaves);
      List.iter
        (fun (l : Provenance.leaf) ->
          B.put_string w l.ctor;
          B.put_string w l.param)
        leaves)
    prov;
  B.contents w

let encode_create_record ~lsn schema =
  let w = B.writer () in
  B.put_i64 w lsn;
  B.put_u8 w 2;
  B.put_schema w schema;
  B.contents w

let encode_drop_record ~lsn name =
  let w = B.writer () in
  B.put_i64 w lsn;
  B.put_u8 w 3;
  B.put_string w name;
  B.contents w

type replay_record =
  | R_stmt of {
      table : string;
      schema_hash : int32;
      stmt : Sql.stmt;
      prov : (string * Provenance.leaf list) list;
    }
  | R_create of Schema.t
  | R_drop of string

let ( let* ) = Result.bind

let decode_record payload =
  let r = B.reader payload in
  let* lsn = B.get_i64 r in
  let* kind = B.get_u8 r in
  let* record =
    match kind with
    | 1 ->
        let* table = B.get_string r in
        let* hash = B.get_u32 r in
        let* stmt = B.get_stmt r in
        let* ncols = B.get_u32 r in
        let rec cols n acc =
          if n = 0 then Ok (List.rev acc)
          else
            let* column = B.get_string r in
            let* nleaves = B.get_u32 r in
            let rec leaves n acc =
              if n = 0 then Ok (List.rev acc)
              else
                let* ctor = B.get_string r in
                let* param = B.get_string r in
                leaves (n - 1) ({ Provenance.ctor; param } :: acc)
            in
            let* leaves = leaves nleaves [] in
            cols (n - 1) ((column, leaves) :: acc)
        in
        let* prov = cols ncols [] in
        Ok (R_stmt { table; schema_hash = Int32.of_int hash; stmt; prov })
    | 2 ->
        let* schema = B.get_schema r in
        Ok (R_create schema)
    | 3 ->
        let* name = B.get_string r in
        Ok (R_drop name)
    | k -> Error (Printf.sprintf "unknown record kind %d" k)
  in
  let* () = B.expect_end r in
  Ok (lsn, record)

(* {1 Write path} *)

(* Columns whose provenance a statement journals: the bound columns of
   an INSERT (all of them when the column list is elided) or the SET
   columns of an UPDATE; a DELETE binds none but still journals the
   schema hash. For an INSERT the full row is reconstructed so
   row-dependent policy families journal their exact parameters. *)
let stmt_provenance t ~schema stmt =
  let columns, row =
    match stmt with
    | Sql.Insert { columns; values; _ } ->
        let cols =
          match columns with
          | Some cols -> cols
          | None -> List.map (fun (c : Schema.column) -> c.name) (Schema.columns schema)
        in
        let row =
          match columns with
          | None when List.length values = Schema.arity schema ->
              Some (Array.of_list values)
          | _ -> (
              match Sesame_db.Row.of_assoc schema (List.combine cols values) with
              | Ok row -> Some row
              | Error _ | (exception Invalid_argument _) -> None)
        in
        (cols, row)
    | Sql.Update { set; _ } -> (List.map fst set, None)
    | Sql.Delete _ | Sql.Select _ | Sql.Select_agg _ -> ([], None)
  in
  List.map (fun column -> (column, t.provenance ~schema ~column ~row)) columns

(* [w]'s counts on top of those of the writers it replaced: the
   counters run across checkpoints, which each reopen the log. *)
let writer_stats t w =
  {
    appended = t.retired.appended + Wal.appended w;
    flushes = t.retired.flushes + Wal.writes w;
    fsyncs = t.retired.fsyncs + Wal.fsyncs w;
  }

(* Runs inside the database's write section, as every write to [t]'s
   mutable fields does. *)
let checkpoint_in_section t =
  match t.writer with
  | None -> Error "durable store closed"
  | Some w -> (
      let result =
        let tables =
          List.map
            (fun name ->
              let tbl = Db.table_exn t.db name in
              (Table.schema tbl, Table.to_list tbl))
            (Db.table_names t.db)
        in
        let lsn = Int64.pred t.next_lsn in
        let* () = Checkpoint.write ~dir:t.dir ~lsn tables in
        (* Published: the snapshot now covers everything up to [lsn], so
           the log restarts empty. A crash before this truncate is
           idempotent — replay skips records with lsn <= checkpoint. *)
        t.ckpt_lsn <- lsn;
        t.since_ckpt <- 0;
        let* () = Wal.close w in
        t.retired <- writer_stats t w;
        t.writer <- None;
        let* () = Wal.create ~magic:wal_magic (wal_path t) in
        let* w' = open_wal ~sync:t.config.sync (wal_path t) in
        t.writer <- Some w';
        Ok ()
      in
      match result with
      | Ok () ->
          t.last_ckpt_error <- None;
          Ok ()
      | Error e ->
          (* If the WAL writer was lost after the snapshot published, the
             checkpoint itself is intact, but nothing can journal — the
             hook's [writer = None] branch poisons on the next write. *)
          t.last_ckpt_error <- Some e;
          Error e)

let journal t event =
  match t.writer with
  | None -> Error "durable store closed"
  | Some w ->
      let lsn = t.next_lsn in
      let payload =
        match (event : Db.journal_event) with
        | Db.J_stmt stmt ->
            let table =
              match stmt with
              | Sql.Insert { table; _ } | Sql.Update { table; _ } | Sql.Delete { table; _ } ->
                  table
              | Sql.Select _ | Sql.Select_agg _ -> assert false
            in
            let schema_hash, prov =
              match Db.table t.db table with
              | Some tbl ->
                  let schema = Table.schema tbl in
                  (B.schema_hash schema, stmt_provenance t ~schema stmt)
              | None -> (0l, [])
            in
            encode_stmt_record ~lsn ~table ~schema_hash ~stmt ~prov
        | Db.J_create schema -> encode_create_record ~lsn schema
        | Db.J_drop name -> encode_drop_record ~lsn name
      in
      let* () = Wal.append w payload in
      t.next_lsn <- Int64.succ lsn;
      t.since_ckpt <- t.since_ckpt + 1;
      (match t.config.checkpoint_every with
      | Some n when t.since_ckpt >= n ->
          (* Auto-checkpoint failure must not fail the statement — the
             record is already durable in the WAL. It is recorded in
             [last_checkpoint_error] and retried after the next write. *)
          ignore (checkpoint_in_section t : (unit, string) result)
      | _ -> ());
      Ok ()

let commit_stats t = match t.writer with None -> t.retired | Some w -> writer_stats t w

let checkpoint t = Db.exclusive t.db (fun () -> checkpoint_in_section t)

(* Runs inside the database's write section. *)
let close_writer t =
  match t.writer with
  | None -> Ok ()
  | Some w ->
      let r = Wal.close w in
      t.retired <- writer_stats t w;
      t.writer <- None;
      r

let close t = Db.exclusive t.db (fun () -> close_writer t)

(* {1 Recovery} *)

let fail dir reason = Error (Recovery_failed { dir; reason })

let replay_record db ~lsn record =
  match record with
  | R_create schema -> (
      match Db.create_table db schema with
      | Ok () -> Ok ()
      | Error detail -> Error (Replay_failed { lsn; detail }))
  | R_drop name -> (
      match Db.drop_table db name with
      | Ok () -> Ok ()
      | Error detail -> Error (Replay_failed { lsn; detail }))
  | R_stmt { table; schema_hash = expected; stmt; prov } -> (
      match Db.table db table with
      | None -> Error (Replay_failed { lsn; detail = Printf.sprintf "no table named %s" table })
      | Some tbl -> (
          let found = B.schema_hash (Table.schema tbl) in
          if not (Int32.equal found expected) then
            Error (Schema_drift { lsn; table; expected; found })
          else
            let bad_ctor =
              List.find_map
                (fun (_, leaves) ->
                  List.find_opt (fun (l : Provenance.leaf) -> not (Provenance.registered l.ctor)) leaves)
                prov
            in
            match bad_ctor with
            | Some l -> Error (Unknown_policy { lsn; table; ctor = l.ctor })
            | None -> (
                match Db.exec_stmt db stmt with
                | Ok _ -> Ok ()
                | Error e -> Error (Replay_failed { lsn; detail = Db.error_message e }))))

(* The state a directory describes: its checkpoint installed into a
   fresh database, then every WAL record past the checkpoint replayed
   over it. [scan] reads the WAL's records (and whatever else its caller
   needs from the scan); it runs after the checkpoint loads, so a
   corrupt checkpoint fails before the WAL is touched. Replay runs with
   the ambient request deadline suspended: it may run on a request's
   domain (a brownout snapshot build, a brownout exit's reopen), and a
   half-replayed state would help nobody. *)
let replay_dir ~dir ~scan =
  Sesame_request.unrestricted @@ fun () ->
  let db = Db.create () in
  let* ckpt_lsn =
    match Checkpoint.load ~dir with
    | Error detail -> fail dir (Corrupt_checkpoint detail)
    | Ok None -> Ok 0L
    | Ok (Some (lsn, tables)) ->
        let rec install = function
          | [] -> Ok lsn
          | (schema, rows) :: rest -> (
              match Db.restore_table db schema rows with
              | Ok () -> install rest
              | Error detail -> fail dir (Corrupt_checkpoint detail))
        in
        install tables
  in
  let* records, scanned = scan () in
  let rec replay last_lsn n = function
    | [] -> Ok (last_lsn, n)
    | ({ offset; payload } : Wal.record) :: rest -> (
        match decode_record payload with
        | Error detail -> fail dir (Corrupt_record { offset; detail })
        | Ok (lsn, record) ->
            if Int64.compare lsn ckpt_lsn <= 0 then
              (* Already inside the checkpoint (a crash landed between
                 checkpoint publication and WAL reset): CRC-validated but
                 not re-applied. *)
              replay last_lsn n rest
            else (
              match replay_record db ~lsn record with
              | Ok () -> replay lsn (n + 1) rest
              | Error reason -> fail dir reason))
  in
  let* last_lsn, replayed = replay ckpt_lsn 0 records in
  Ok (db, ckpt_lsn, last_lsn, replayed, scanned)

let recover ~dir ~config =
  let wal_file = Filename.concat dir "wal" in
  (* A leftover temp file is a crash mid-checkpoint: the rename never
     happened, so the old checkpoint + WAL are authoritative. *)
  (try Sys.remove (Filename.concat dir Checkpoint.temp_file) with Sys_error _ -> ());
  let scan () =
    if Sys.file_exists wal_file then
      match Wal.scan ~magic:wal_magic wal_file with
      | Ok (records, valid_end, tail) -> Ok (records, (valid_end, tail))
      | Error detail -> fail dir (Corrupt_record { offset = 0; detail })
    else
      match Wal.create ~magic:wal_magic wal_file with
      | Ok () -> Ok ([], (String.length wal_magic, Wal.Clean))
      | Error detail -> fail dir (Corrupt_record { offset = 0; detail })
  in
  let* db, ckpt_lsn, last_lsn, replayed, (valid_end, tail) = replay_dir ~dir ~scan in
  let* () =
    match tail with
    | Wal.Clean -> Ok ()
    | Wal.Torn { offset = _ } -> (
        (* The torn tail is a crash signature, not corruption: cut it off
           so the log ends on a frame boundary. A tail torn inside the
           magic header means creation itself crashed — start fresh. *)
        let repair =
          if valid_end < String.length wal_magic then Wal.create ~magic:wal_magic wal_file
          else Wal.truncate wal_file valid_end
        in
        match repair with
        | Ok () -> Ok ()
        | Error detail -> fail dir (Corrupt_record { offset = valid_end; detail }))
  in
  let* writer =
    match open_wal ~sync:config.sync wal_file with
    | Ok w -> Ok w
    | Error detail -> fail dir (Corrupt_record { offset = valid_end; detail })
  in
  Ok (db, writer, ckpt_lsn, last_lsn, replayed)

(* Read-only snapshot recovery: the brownout read path. When the live
   store poisons mid-flight (a journal fault), reads can
   continue from the last consistent on-disk state — checkpoint plus
   every intact WAL record. Strictly side-effect-free on the directory:
   no temp-file cleanup, no torn-tail truncation, no quarantine marker,
   no writer — so it can run while the (poisoned) writer still owns the
   files. A torn tail is tolerated, not repaired: the valid prefix is
   replayed and the tear is left for a real reopen to truncate. *)
let read_state ~dir =
  let wal_file = Filename.concat dir "wal" in
  let scan () =
    if Sys.file_exists wal_file then
      match Wal.scan ~magic:wal_magic wal_file with
      | Ok (records, _, _) -> Ok (records, ())
      | Error detail -> fail dir (Corrupt_record { offset = 0; detail })
    else Ok ([], ())
  in
  let* db, _, _, _, () = replay_dir ~dir ~scan in
  Ok db

(* Recover the directory into [t]'s handles: refused on a quarantined
   directory, and a recovery that fails closed quarantines it. Runs in
   the database's write section, or before [t] is shared. *)
let recover_into t =
  let dir = t.dir in
  let* () =
    if Sys.file_exists (quarantine_path dir) then begin
      let detail =
        try
          let ic = open_in_bin (quarantine_path dir) in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> String.trim (really_input_string ic (in_channel_length ic)))
        with Sys_error _ -> "unreadable marker"
      in
      fail dir (Quarantined detail)
    end
    else Ok ()
  in
  match recover ~dir ~config:t.config with
  | Error (Recovery_failed { reason; _ }) as e ->
      (match reason with Quarantined _ -> () | _ -> write_quarantine dir reason);
      e
  | Ok (recovered, writer, ckpt_lsn, last_lsn, replayed) ->
      t.writer <- Some writer;
      t.next_lsn <- Int64.succ last_lsn;
      t.ckpt_lsn <- ckpt_lsn;
      t.since_ckpt <- 0;
      t.replayed <- replayed;
      t.last_ckpt_error <- None;
      Db.refill t.db ~from:recovered;
      Ok ()

let open_store ?(config = default_config) ~provenance ~dir () =
  let ensure_dir () =
    try
      (match Unix.mkdir dir 0o755 with
      | () -> ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Ok ()
    with Unix.Unix_error (e, _, _) ->
      fail dir (Corrupt_checkpoint (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e)))
  in
  let* () = ensure_dir () in
  let t =
    {
      dir;
      db = Db.create ();
      config;
      provenance;
      writer = None;
      retired = { appended = 0; flushes = 0; fsyncs = 0 };
      next_lsn = 1L;
      ckpt_lsn = 0L;
      since_ckpt = 0;
      replayed = 0;
      last_ckpt_error = None;
    }
  in
  let* () = recover_into t in
  Db.set_journal t.db (Some (journal t));
  Db.set_snapshot_source t.db (fun () -> Result.map_error error_message (read_state ~dir));
  Ok t

(* The Brownout_exit seam models a recovery that fails before it
   starts: the store stays as it was, degraded if it was. A recovery
   that fails later has closed the writer: the store is poisoned, so
   it takes no write and reads what a snapshot can give. *)
let reopen t =
  match Sesame_faults.hit Sesame_faults.Brownout_exit with
  | exception Sesame_faults.Injected { point; action; _ } ->
      Error (Sesame_faults.injected_message point action)
  | () -> (
      Db.exclusive t.db @@ fun () ->
      ignore (close_writer t : (unit, string) result);
      match recover_into t with
      | Ok () -> Ok ()
      | Error e ->
          Db.poison t.db (error_message e);
          Error (error_message e))
