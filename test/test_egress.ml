(* Egress audit. Sesame's guarantee is that data leaves the process only
   through a sink whose policy check passed, so every raw egress
   primitive in lib/ must be a known use with a stated reason. The audit
   scans the text of every lib/**/*.ml for the primitives below, so a
   mention in a comment counts too. It fails on a use the allow-list
   does not name, and on an allow-list entry nothing uses any more. *)

let test name f = Alcotest.test_case name `Quick f

let primitives =
  [
    "Unix.write";
    "Unix.single_write";
    "Unix.send";
    "print_";
    "Printf.printf";
    "Format.printf";
    "prerr_";
    "Printf.eprintf";
    "Format.eprintf";
    "output_string";
    "output_bytes";
    "Out_channel.";
  ]

(* (file under lib/, primitive, reason). *)
let allowed =
  [
    ( "server/sesame_server.ml",
      "Unix.write",
      "the socket write of each response, whose body the handler built from checked sinks" );
    ( "server/sesame_server.ml",
      "prerr_",
      "default on_error: the method and the exception's constructor name, never its text" );
    ( "http/router.ml",
      "prerr_",
      "Router.default_error_logger: the method and the exception's constructor name" );
    ("wal/wal.ml", "Unix.write", "frames into the store's redo log and the attestation log");
    ("wal/checkpoint.ml", "Unix.write", "checkpoint snapshots into the store's own directory");
    ( "wal/durable.ml",
      "output_string",
      "the quarantine marker: a fixed-vocabulary reason, no row data" );
    ("signing/lockfile.ml", "Unix.write", "the lock file's owner line: pid and time");
    ("signing/lockfile.ml", "prerr_", "the default stale-lock warning: a lock path and pid");
  ]

let ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Every (line, marker) use in [code]. A marker matches where an
   identifier starts, so [Unix.write] covers [Unix.write_substring] and
   [print_] covers [print_endline], but [Format.pp_print_string] is not
   a use. *)
let uses ~markers code =
  let n = String.length code in
  let line_of i =
    let l = ref 1 in
    String.iteri (fun j c -> if j < i && c = '\n' then incr l) code;
    !l
  in
  List.concat_map
    (fun prim ->
      let m = String.length prim in
      let rec from i acc =
        if i + m > n then List.rev acc
        else if String.sub code i m = prim && (i = 0 || not (ident_char code.[i - 1])) then
          from (i + m) ((line_of i, prim) :: acc)
        else from (i + 1) acc
      in
      from 0 [])
    markers

(* dune's copy of lib/ next to this executable's directory
   (_build/default/lib), which the test's deps keep current. *)
let lib_dir = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "lib"

let rec ml_files dir =
  Sys.readdir (Filename.concat lib_dir dir)
  |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun name ->
         let path = if dir = "" then name else Filename.concat dir name in
         if String.length name > 0 && name.[0] = '.' then []
         else if Sys.is_directory (Filename.concat lib_dir path) then ml_files path
         else if Filename.check_suffix name ".ml" then [ path ]
         else [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every use in lib/: (file, line, primitive). *)
let lib_uses () =
  List.concat_map
    (fun file ->
      let src = read_file (Filename.concat lib_dir file) in
      List.map (fun (line, prim) -> (file, line, prim)) (uses ~markers:primitives src))
    (ml_files "")

let is_allowed (file, _, prim) =
  List.exists (fun (f, p, _) -> String.equal f file && String.equal p prim) allowed

let audit_tests =
  [
    test "the scanner matches only where an identifier starts" (fun () ->
        let src =
          "Format.pp_print_string fmt s; debug_print_x c;\n\
           prerr_endline s; Stdlib.print_string s; Unix.write_substring fd s 0 1\n"
        in
        Alcotest.(check (list (pair int string)))
          "the three uses on line 2"
          [ (2, "Unix.write"); (2, "prerr_"); (2, "print_") ]
          (List.sort compare (uses ~markers:primitives src)));
    test "no egress primitive outside the allow-list" (fun () ->
        let files = ml_files "" in
        Alcotest.(check bool) "lib/ has sources" true (List.length files > 50);
        match List.filter (fun u -> not (is_allowed u)) (lib_uses ()) with
        | [] -> ()
        | stray ->
            Alcotest.failf "egress outside the allow-list:\n%s"
              (String.concat "\n"
                 (List.map (fun (f, l, p) -> Printf.sprintf "  lib/%s:%d: %s" f l p) stray)));
    test "every allow-list entry is still used, and says why" (fun () ->
        let used = lib_uses () in
        List.iter
          (fun (file, prim, reason) ->
            Alcotest.(check bool) (Printf.sprintf "lib/%s has a reason" file) true (reason <> "");
            if not (List.exists (fun (f, _, p) -> String.equal f file && String.equal p prim) used)
            then Alcotest.failf "stale allow-list entry: lib/%s %s" file prim)
          allowed);
  ]

(* The PCon boundary ratchet. pcon.mli reserves [Pcon.Internal] for
   framework code, and [Mock.unwrap] is a test helper, yet application
   code in lib/apps still calls them. Each such line is a place where
   governed data is unwrapped, or wrapped by hand, outside any region
   or sanctioned primitive. The count may only fall: a line above the
   ceiling fails the audit, which names every such line, and a change
   that removes some must lower the ceiling to the new count. *)
let boundary_markers = [ "Pcon.Internal."; "Mock.unwrap" ]
let boundary_ceiling = 27

(* Every (file, line number, text) in lib/apps that uses a marker, once
   per line. *)
let boundary_lines () =
  List.concat_map
    (fun file ->
      let src = read_file (Filename.concat lib_dir file) in
      let lines = Array.of_list (String.split_on_char '\n' src) in
      uses ~markers:boundary_markers src
      |> List.map fst |> List.sort_uniq Int.compare
      |> List.map (fun l -> (file, l, lines.(l - 1))))
    (ml_files "apps")

let boundary_tests =
  [
    test "application code stays at or under its Internal/unwrap ceiling" (fun () ->
        let lines = boundary_lines () in
        let listing () =
          String.concat "\n"
            (List.map (fun (f, l, text) -> Printf.sprintf "  lib/%s:%d: %s" f l (String.trim text)) lines)
        in
        if List.length lines > boundary_ceiling then
          Alcotest.failf "%d lines of lib/apps use Pcon.Internal or Mock.unwrap (ceiling %d):\n%s"
            (List.length lines) boundary_ceiling (listing ());
        if List.length lines < boundary_ceiling then
          Alcotest.failf "lib/apps is down to %d such lines: lower boundary_ceiling from %d"
            (List.length lines) boundary_ceiling);
  ]

(* The mutable-state audit. Handler domains share the app, connector,
   store and sandbox records, so every [mutable] record field in lib/
   is listed with what keeps it race-free: a named lock, the database's
   write section, or a reason no two domains write it at once. (Fields
   that need neither hold [Atomic] cells instead.) A field the list
   does not name fails the audit, and so does an entry that names no
   field. *)
let mutable_fields =
  [
    ("apps/websubmit.ml", "model", "retrain publishes a whole model in one word");
    ("apps/websubmit_baseline.ml", "model", "the Fig. 8 baseline, driven from one domain");
    ("core/region.ml", "last", "a diagnostic sample: each run publishes its timings in one word");
    ("core/region.ml", "signature", "setup only: signed at review, before serving");
    ("core/sesame_conn.ml", "retry", "setup only (configure_resilience)");
    ("core/sesame_conn.ml", "breaker", "setup only (configure_resilience)");
    ("core/sesame_conn.ml", "jitter", "setup only (configure_resilience); states are per domain");
    ("core/sesame_conn.ml", "sleep", "setup only (configure_resilience)");
    ("core/sesame_conn.ml", "now", "setup only (configure_resilience)");
    ("db/bincodec.ml", "pos", "one decode's reader");
    ("db/database.ml", "tables", "the write section: create, drop and refill; one word, read whole");
    ("db/database.ml", "query_cost_ns", "setup only");
    ("db/database.ml", "journal", "setup only: installed before the store is shared");
    ("db/database.ml", "snapshot_source", "setup only: installed before the store is shared");
    ("db/rwlock.ml", "readers", "the lock's own mutex");
    ("db/rwlock.ml", "writer", "the lock's own mutex");
    ("db/rwlock.ml", "waiting_writers", "the lock's own mutex");
    ("db/sql.ml", "tokens", "one parse's state");
    ("db/sql.ml", "params", "one parse's state");
    ("db/table.ml", "rows", "the table's write lock");
    ("db/table.ml", "size", "the table's write lock");
    ("db/table.ml", "live", "the table's write lock");
    ("db/table.ml", "high_key", "the table's write lock");
    ("http/router.ml", "entries", "setup only: routes register before serving");
    ("http/router.ml", "middlewares", "setup only: middleware registers before serving");
    ("http/router.ml", "next_order", "setup only: routes register before serving");
    ("http/router.ml", "on_error", "setup only");
    ("http/wire.ml", "pending", "one connection's parser");
    ("http/wire.ml", "pos", "one connection's parser");
    ("request/sesame_request.ml", "deadline", "domain-local (Domain.DLS): one request at a time");
    ("request/sesame_request.ml", "degraded", "domain-local (Domain.DLS): one request at a time");
    ("sandbox/arena.ml", "brk", "the one guest that acquired the arena from its pool");
    ("sandbox/arena.ml", "high_water", "the one guest that acquired the arena from its pool");
    ("sandbox/arena.ml", "poisoned", "the one guest that acquired the arena from its pool");
    ("sandbox/pool.ml", "capacity", "the pool's mutex");
    ("sandbox/pool.ml", "free", "the pool's mutex");
    ("sandbox/pool.ml", "free_count", "the pool's mutex");
    ("sandbox/pool.ml", "preflight", "the pool's mutex");
    ("sandbox/quota.ml", "runs", "the quota table's mutex");
    ("sandbox/quota.ml", "traps", "the quota table's mutex");
    ("sandbox/quota.ml", "fuel", "the quota table's mutex");
    ("sandbox/quota.ml", "wall_s", "the quota table's mutex");
    ("sandbox/quota.ml", "peak_mem_bytes", "the quota table's mutex");
    ("sandbox/quota.ml", "denied", "the quota table's mutex");
    ("sandbox/runtime.ml", "depth", "domain-local (Domain.DLS)");
    ("sandbox/runtime.ml", "fuel_left", "domain-local (Domain.DLS)");
    ("sandbox/runtime.ml", "fuel_limit", "domain-local (Domain.DLS)");
    ("sandbox/runtime.ml", "ticks", "domain-local (Domain.DLS)");
    ("scrutinizer/analysis.ml", "eff", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "dependents", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "publishing", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "rejections", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "fr_ret", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "fr_ret_trace", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "fr_writes", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "fr_rejs", "one analysis run, on one domain");
    ("scrutinizer/analysis.ml", "fr_exit", "one analysis run, on one domain");
    ("server/sesame_server.ml", "burst_handles", "the server's mutex");
    ("server/sesame_server.ml", "listener", "start and stop, on the controlling domain");
    ("server/sesame_server.ml", "workers", "start and stop, on the controlling domain");
    ("server/sesame_server.ml", "supervisor", "start and stop, on the controlling domain");
    ("signing/attest.ml", "closed", "the recorder's mutex");
    ("signing/keystore.ml", "revoked_at", "setup, and revocation by an operator outside serving");
    ("signing/lockfile.ml", "released", "its holder: the recorder's mutex or with_lock's caller");
    ("wal/durable.ml", "writer", "the database's write section");
    ("wal/durable.ml", "retired", "the database's write section");
    ("wal/durable.ml", "next_lsn", "the database's write section");
    ("wal/durable.ml", "ckpt_lsn", "the database's write section");
    ("wal/durable.ml", "since_ckpt", "the database's write section");
    ("wal/durable.ml", "replayed", "the database's write section: set by recovery and reopen");
    ("wal/durable.ml", "last_ckpt_error", "the database's write section");
    ("wal/wal.ml", "appended", "its owner's lock: the write section, or the recorder's mutex");
    ("wal/wal.ml", "closed", "its owner's lock: the write section, or the recorder's mutex");
    ("wal/wal.ml", "writes", "its owner's lock: the write section, or the recorder's mutex");
    ("wal/wal.ml", "fsyncs", "its owner's lock: the write section, or the recorder's mutex");
  ]

(* Every (line, field) that [code] declares mutable: the word [mutable]
   first on its line or after [{] or [;], then a field name and a
   colon. Prose such as "by mutable reference:" does not match. *)
let mutable_decls code =
  let n = String.length code in
  let blank i = i < n && (code.[i] = ' ' || code.[i] = '\t') in
  let rec past_blanks i = if blank i then past_blanks (i + 1) else i in
  let rec past_ident i = if i < n && ident_char code.[i] then past_ident (i + 1) else i in
  let rec before_blanks i = if i >= 0 && blank i then before_blanks (i - 1) else i in
  let rec scan i line acc =
    if i >= n then List.rev acc
    else if code.[i] = '\n' then scan (i + 1) (line + 1) acc
    else if
      i + 7 <= n && String.sub code i 7 = "mutable" && (i = 0 || not (ident_char code.[i - 1]))
    then begin
      let prev = before_blanks (i - 1) in
      let opens = prev < 0 || code.[prev] = '\n' || code.[prev] = '{' || code.[prev] = ';' in
      let start = past_blanks (i + 7) in
      let stop = past_ident start in
      let colon = past_blanks stop in
      if opens && start > i + 7 && stop > start && colon < n && code.[colon] = ':' then
        scan stop line ((line, String.sub code start (stop - start)) :: acc)
      else scan (i + 7) line acc
    end
    else scan (i + 1) line acc
  in
  scan 0 1 []

(* Every declared mutable field in lib/: (file, line, field). *)
let lib_mutable_fields () =
  List.concat_map
    (fun file ->
      List.map
        (fun (line, field) -> (file, line, field))
        (mutable_decls (read_file (Filename.concat lib_dir file))))
    (ml_files "")

let mutable_tests =
  [
    test "the field scanner matches declarations only" (fun () ->
        let src =
          "type t = { a : int; mutable b : int;\n\
          \  mutable c: string }\n\
           (* a mutable reference: prose *) let s = \"by mutable d : no\"\n\
           mutablex : int\n"
        in
        Alcotest.(check (list (pair int string)))
          "b and c" [ (1, "b"); (2, "c") ] (mutable_decls src));
    test "every mutable field in lib/ is listed with its guard" (fun () ->
        let listed (file, _, field) =
          List.exists (fun (f, x, _) -> String.equal f file && String.equal x field) mutable_fields
        in
        match List.filter (fun d -> not (listed d)) (lib_mutable_fields ()) with
        | [] -> ()
        | stray ->
            Alcotest.failf "mutable fields with no stated guard:\n%s"
              (String.concat "\n"
                 (List.map (fun (f, l, x) -> Printf.sprintf "  lib/%s:%d: %s" f l x) stray)));
    test "every mutable-field entry names a field, and says why" (fun () ->
        let declared = lib_mutable_fields () in
        List.iter
          (fun (file, field, guard) ->
            let name = Printf.sprintf "lib/%s %s" file field in
            Alcotest.(check bool) (name ^ " has a guard") true (guard <> "");
            if not (List.exists (fun (f, _, x) -> f = file && x = field) declared) then
              Alcotest.failf "stale entry: %s" name)
          mutable_fields);
  ]

(* Module-level cells are shared by every domain in the process, so
   each [ref] or [Hashtbl] bound at the top of a lib/ module is listed
   with what keeps it race-free, as a mutable field is. *)
let module_cells =
  [
    ("core/build_mode.ml", "mode", "setup only: set before serving; with_mode scopes it in tests");
    ("core/pcon.ml", "default", "setup only: set_default_storage runs before serving");
    ("core/registry.ml", "table", "the registry's mutex");
    ("faults/sesame_faults.ml", "enabled", "arm and disarm, between requests; handlers read one word");
    ("faults/sesame_faults.ml", "plans", "arm and disarm, between requests; handlers read one word");
    ("faults/sesame_faults.ml", "rng", "arm; drawn only by an armed Corrupt plan, in one-request tests");
    ("wal/provenance.ml", "registry", "setup only: families register before a store opens");
  ]

(* Every (line, name) that [code] binds at the top of the module to a
   fresh [ref] or [Hashtbl]: [let] first on its line, a name, an
   optional type, then [= ref] or [= Hashtbl.create]. *)
let module_cell_decls code =
  List.concat
    (List.mapi
       (fun i line ->
         let n = String.length line in
         let rec past_ident j = if j < n && ident_char line.[j] then past_ident (j + 1) else j in
         if n > 4 && String.sub line 0 4 = "let " then
           let stop = past_ident 4 in
           match String.index_from_opt line stop '=' with
           | Some eq when stop > 4 ->
               let rhs = String.trim (String.sub line (eq + 1) (n - eq - 1)) in
               let starts p = String.length rhs >= String.length p && String.sub rhs 0 (String.length p) = p in
               if starts "ref " || starts "ref(" || starts "Hashtbl.create" then
                 [ (i + 1, String.sub line 4 (stop - 4)) ]
               else []
           | Some _ | None -> []
         else [])
       (String.split_on_char '\n' code))

let lib_module_cells () =
  List.concat_map
    (fun file ->
      List.map
        (fun (line, name) -> (file, line, name))
        (module_cell_decls (read_file (Filename.concat lib_dir file))))
    (ml_files "")

let module_cell_tests =
  [
    test "the cell scanner matches top-level refs and tables only" (fun () ->
        let src =
          "let a = ref 0\n\
           let b : (string, int) Hashtbl.t = Hashtbl.create 4\n\
          \  let c = ref 0\n\
           let d = Atomic.make 0\n\
           let refs = [ 1 ]\n\
           let e = references\n"
        in
        Alcotest.(check (list (pair int string)))
          "a and b" [ (1, "a"); (2, "b") ] (module_cell_decls src));
    test "every module-level ref or Hashtbl in lib/ is listed with its guard" (fun () ->
        let listed (file, _, name) =
          List.exists (fun (f, x, _) -> String.equal f file && String.equal x name) module_cells
        in
        match List.filter (fun d -> not (listed d)) (lib_module_cells ()) with
        | [] -> ()
        | stray ->
            Alcotest.failf "module-level cells with no stated guard:\n%s"
              (String.concat "\n"
                 (List.map (fun (f, l, x) -> Printf.sprintf "  lib/%s:%d: %s" f l x) stray)));
    test "every module-cell entry names a cell, and says why" (fun () ->
        let declared = lib_module_cells () in
        List.iter
          (fun (file, name, guard) ->
            let label = Printf.sprintf "lib/%s %s" file name in
            Alcotest.(check bool) (label ^ " has a guard") true (guard <> "");
            if not (List.exists (fun (f, _, x) -> f = file && x = name) declared) then
              Alcotest.failf "stale entry: %s" label)
          module_cells);
  ]

(* One group, so the runner's column widths and the printed test names
   stay as they were before the boundary test joined. *)
let () =
  Alcotest.run "egress"
    [ ("audit", audit_tests @ boundary_tests @ mutable_tests @ module_cell_tests) ]
