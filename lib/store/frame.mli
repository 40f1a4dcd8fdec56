(** CRC32-guarded, length-prefixed record framing.

    A frame is [len:u32le][crc:u32le][payload], where [crc] is the
    CRC-32 (IEEE 802.3) of the payload.  Framing is what turns "a file
    of bytes" into "a longest valid prefix of records": the decoder
    never raises on damaged input, it reports {e where} the valid
    prefix ends and why, so recovery can truncate there. *)

(** CRC-32 of [s], as the usual reflected polynomial 0xEDB88320, in
    [0, 2{^32}). *)
val crc32 : string -> int

val header_size : int

val encode : string -> string

type read_result =
  | Record of { payload : string; next : int }
  | End  (** clean end of input at the offset given to [read] *)
  | Torn of { offset : int; reason : string }
      (** the bytes from [offset] on are not a whole valid frame:
          truncated header, truncated or over-long payload, corrupt
          length, or CRC mismatch *)

(** [read s off] decodes the frame starting at byte [off] of [s]. *)
val read : string -> int -> read_result
