module B = Sesame_db.Bincodec

(* Frame header: u32 length + u32 crc, little-endian. *)
let frame_header = 8

let crc_of payload = Int32.to_int (B.crc32 payload) land 0xFFFFFFFF

let add_u32 buf n = Buffer.add_int32_le buf (Int32.of_int n)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let io_error what e = Error (Printf.sprintf "wal %s: %s" what (Unix.error_message e))

let create ~magic path =
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        write_all fd magic 0 (String.length magic);
        Unix.fsync fd);
    Ok ()
  with Unix.Unix_error (e, _, _) -> io_error "create" e

type writer = {
  fd : Unix.file_descr;
  append_seam : Sesame_faults.point;
  fsync_seam : Sesame_faults.point;
  mutable appended : int;
  mutable closed : bool;
  sync : bool;
  mutable writes : int;
  mutable fsyncs : int;
}

let open_writer ~append_seam ~fsync_seam ~sync path =
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
    Ok { fd; append_seam; fsync_seam; appended = 0; closed = false; sync; writes = 0; fsyncs = 0 }
  with Unix.Unix_error (e, _, _) -> io_error "open" e

let appended w = w.appended
let writes w = w.writes
let fsyncs w = w.fsyncs

let append w payload =
  if w.closed then Error "wal append: writer closed"
  else begin
    Sesame_faults.hit w.append_seam;
    let frame = Buffer.create (frame_header + String.length payload) in
    add_u32 frame (String.length payload);
    add_u32 frame (crc_of payload);
    Buffer.add_string frame payload;
    let s = Buffer.contents frame in
    w.appended <- w.appended + 1;
    match write_all w.fd s 0 (String.length s) with
    | exception Unix.Unix_error (e, _, _) -> io_error "write" e
    | () ->
        w.writes <- w.writes + 1;
        if not w.sync then Ok ()
        else begin
          (* The seam sits between write and fsync: an injected fault here
             models a frame the disk never saw, so it must not be
             acknowledged. *)
          Sesame_faults.hit w.fsync_seam;
          match Unix.fsync w.fd with
          | () ->
              w.fsyncs <- w.fsyncs + 1;
              Ok ()
          | exception Unix.Unix_error (e, _, _) -> io_error "fsync" e
        end
  end

let close w =
  if w.closed then Ok ()
  else begin
    w.closed <- true;
    match Unix.close w.fd with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> io_error "close" e
  end

type record = { offset : int; payload : string }
type tail = Clean | Torn of { offset : int }

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error (Printf.sprintf "wal read: %s" e)

let u32_at s pos =
  Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

let scan ~magic path =
  match read_file path with
  | Error _ as e -> e
  | Ok s ->
      let len = String.length s in
      let header_size = String.length magic in
      if len < header_size then
        if String.equal s (String.sub magic 0 len) then
          (* A crash during initial creation left a partial header. *)
          Ok ([], 0, Torn { offset = 0 })
        else Error "bad magic header"
      else if not (String.equal (String.sub s 0 header_size) magic) then
        Error "bad magic header"
      else begin
        let rec go pos acc =
          let remaining = len - pos in
          if remaining = 0 then Ok (List.rev acc, pos, Clean)
          else if remaining < frame_header then Ok (List.rev acc, pos, Torn { offset = pos })
          else begin
            let plen = u32_at s pos in
            let crc = u32_at s (pos + 4) in
            if remaining - frame_header < plen then
              (* The frame claims more bytes than the file holds: the tail
                 of a crashed write (or a torn length field — either way
                 nothing after this point is recoverable framing). *)
              Ok (List.rev acc, pos, Torn { offset = pos })
            else begin
              let payload = String.sub s (pos + frame_header) plen in
              if crc_of payload <> crc then
                Error (Printf.sprintf "CRC mismatch in frame at offset %d (not a torn tail)" pos)
              else
                go (pos + frame_header + plen) ({ offset = pos; payload } :: acc)
            end
          end
        in
        go header_size []
      end

let truncate path offset =
  try
    Unix.truncate path offset;
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
    Ok ()
  with Unix.Unix_error (e, _, _) -> io_error "truncate" e
