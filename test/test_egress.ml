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

(* One group, so the runner's column widths and the printed test names
   stay as they were before the boundary test joined. *)
let () = Alcotest.run "egress" [ ("audit", audit_tests @ boundary_tests) ]
