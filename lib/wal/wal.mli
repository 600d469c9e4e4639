(** The physical frame log: a file of length-prefixed, CRC-32
    checksummed frames behind a caller-chosen magic header. It frames
    the database's redo log ([SSMWAL01], {!Durable}) and the signed
    attestation log ([SSMATT01], [Sesame_signing.Attest]); each caller
    passes its magic and its fault seams.

    Frame layout (all little-endian):

    {v u32 length | u32 crc32(payload) | payload v}

    The payload bytes are opaque here — the caller owns their meaning.
    This module only guarantees the crash-consistency story of the
    {e framing}:

    - a frame that extends past end-of-file (including a partially
      written header) is a {e torn tail} — the expected residue of a
      crash mid-write, reported as {!Torn} so the caller can truncate
      back to the last whole frame;
    - a frame that is fully present but whose CRC does not match is
      {e corruption} — a partial write cannot produce it, so {!scan}
      fails closed with an error instead of guessing.

    Every append writes its frame before returning and, on a [sync]
    writer, [fsync]s it: an acknowledged frame is on disk. The writer's
    append seam fires before the write and its fsync seam between the
    write and the [fsync]. *)

(** {1 Writing} *)

type writer

val create : magic:string -> string -> (unit, string) result
(** Creates (or truncates to) a fresh log containing only the [magic]
    header, [fsync]ed. *)

val open_writer :
  append_seam:Sesame_faults.point ->
  fsync_seam:Sesame_faults.point ->
  sync:bool ->
  string ->
  (writer, string) result
(** Opens an existing log for appending. With [sync] every acknowledged
    append is [fsync]ed before it returns. *)

val append : writer -> string -> (unit, string) result
(** Frames [payload] and writes it ([fsync]ing when the writer is
    [sync]). An [Error] (or an injected fault's raise) means the frame
    was {e not} acknowledged — the caller must fail the statement and
    poison the store. *)

val close : writer -> (unit, string) result
(** Closes the descriptor. The writer is unusable after. *)

val appended : writer -> int
(** Frames appended since {!open_writer} (for checkpoint pacing/tests). *)

val writes : writer -> int
(** Frame writes completed; equals {!appended} unless a write failed. *)

val fsyncs : writer -> int
(** [fsync]s performed (0 when the writer is not [sync]). *)

(** {1 Scanning} *)

type record = { offset : int; payload : string }

type tail =
  | Clean  (** the file ends exactly on a frame boundary *)
  | Torn of { offset : int }
      (** a final, incomplete frame starts at [offset]; truncating the
          file back to [offset] yields a clean log *)

val scan : magic:string -> string -> (record list * int * tail, string) result
(** [scan ~magic path] is [Ok (records, valid_end, tail)] where [records] are
    the whole, CRC-valid frames in order and [valid_end] the byte offset
    just past the last of them (0 when the file holds only a prefix of
    [magic], a crash during {!create}). Fails closed ([Error]) on a bad
    magic header or on a complete frame whose CRC does not match — mid-log
    corruption, never the signature of a crash. *)

val truncate : string -> int -> (unit, string) result
(** Physically truncates the file to [offset] (the torn-tail repair),
    [fsync]ing the result. *)
