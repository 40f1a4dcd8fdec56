(* --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) ------------------- *)

(* On native ints: a plain [int array] table, no allocation per byte. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c :=
      (!c lsr 8)
      lxor Array.unsafe_get crc_table
             ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
  done;
  !c lxor 0xFFFFFFFF

(* --- framing ------------------------------------------------------------ *)

let header_size = 8

let encode payload =
  let b = Bytes.create (header_size + String.length payload) in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b header_size (String.length payload);
  Bytes.to_string b

type read_result =
  | Record of { payload : string; next : int }
  | End
  | Torn of { offset : int; reason : string }

let read s off =
  let n = String.length s in
  if off = n then End
  else if off + header_size > n then
    Torn { offset = off; reason = "truncated frame header" }
  else
    let b = Bytes.unsafe_of_string s in
    let len = Int32.to_int (Bytes.get_int32_le b off) in
    let crc = Int32.to_int (Bytes.get_int32_le b (off + 4)) land 0xFFFFFFFF in
    if len < 0 then Torn { offset = off; reason = "corrupt frame length" }
    else if off + header_size + len > n then
      Torn { offset = off; reason = "truncated frame payload" }
    else
      let payload = String.sub s (off + header_size) len in
      if crc32 payload <> crc then
        Torn { offset = off; reason = "crc mismatch" }
      else Record { payload; next = off + header_size + len }
