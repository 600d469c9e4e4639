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

(* Every (line, primitive) use in [code]. A primitive matches where an
   identifier starts, so [Unix.write] covers [Unix.write_substring] and
   [print_] covers [print_endline], but [Format.pp_print_string] is not
   a use. *)
let uses code =
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
    primitives

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
      List.map (fun (line, prim) -> (file, line, prim)) (uses src))
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
          (List.sort compare (uses src)));
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

let () = Alcotest.run "egress" [ ("audit", audit_tests) ]
