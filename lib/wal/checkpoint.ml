module B = Sesame_db.Bincodec

let file = "checkpoint"
let temp_file = "checkpoint.tmp"
let magic = "SSMCKPT1"
let magic_len = String.length magic

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let encode_body ~lsn tables =
  let w = B.writer () in
  B.put_i64 w lsn;
  B.put_u32 w (List.length tables);
  List.iter
    (fun (schema, rows) ->
      B.put_schema w schema;
      B.put_u32 w (List.length rows);
      List.iter (B.put_row w) rows)
    tables;
  B.contents w

let ( let* ) = Result.bind

let decode_body body =
  let r = B.reader body in
  let* lsn = B.get_i64 r in
  let* n_tables = B.get_u32 r in
  let rec tables n acc =
    if n = 0 then Ok (List.rev acc)
    else
      let* schema = B.get_schema r in
      let* n_rows = B.get_u32 r in
      let rec rows n acc =
        if n = 0 then Ok (List.rev acc)
        else
          let* row = B.get_row r in
          rows (n - 1) (row :: acc)
      in
      let* rows = rows n_rows [] in
      tables (n - 1) ((schema, rows) :: acc)
  in
  let* tables = tables n_tables [] in
  let* () = B.expect_end r in
  Ok (lsn, tables)

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let write ~dir ~lsn tables =
  let body = encode_body ~lsn tables in
  let framed = Buffer.create (String.length body + 16) in
  Buffer.add_string framed magic;
  Buffer.add_int32_le framed (Int32.of_int (String.length body));
  Buffer.add_int32_le framed (B.crc32 body);
  Buffer.add_string framed body;
  let framed = Buffer.contents framed in
  let tmp = Filename.concat dir temp_file in
  try
    Sesame_faults.hit Sesame_faults.Db_checkpoint_write;
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        write_all fd framed 0 (String.length framed);
        Unix.fsync fd);
    Sesame_faults.hit Sesame_faults.Db_checkpoint_rename;
    Unix.rename tmp (Filename.concat dir file);
    fsync_dir dir;
    Ok ()
  with
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "checkpoint write: %s" (Unix.error_message e))
  | Sesame_faults.Injected { point; action; _ } ->
      Error (Sesame_faults.injected_message point action)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error (Printf.sprintf "checkpoint read: %s" e)

let load ~dir =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then Ok None
  else
    let* s = read_file path in
    let len = String.length s in
    if len < magic_len + 8 then Error "checkpoint: truncated header"
    else if not (String.equal (String.sub s 0 magic_len) magic) then
      Error "checkpoint: bad magic"
    else begin
      let body_len = Int32.to_int (String.get_int32_le s magic_len) land 0xFFFFFFFF in
      let crc = String.get_int32_le s (magic_len + 4) in
      if len <> magic_len + 8 + body_len then
        Error
          (Printf.sprintf "checkpoint: size mismatch (header says %d body bytes, file has %d)"
             body_len (len - magic_len - 8))
      else begin
        let body = String.sub s (magic_len + 8) body_len in
        if not (Int32.equal (B.crc32 body) crc) then Error "checkpoint: checksum mismatch"
        else
          match decode_body body with
          | Ok v -> Ok (Some v)
          | Error e -> Error (Printf.sprintf "checkpoint: %s" e)
      end
    end
