(* CRC-32 (ISO 3309 / zlib polynomial 0xEDB88320), slicing-by-8.  The
   build deliberately has no compression/checksum dependency, so the WAL
   record format (DESIGN.md §15) carries its own implementation.  Values
   are the standard reflected CRC-32, i.e. identical to zlib's crc32() —
   a record written here can be checked with any off-the-shelf tool.

   Slicing-by-8 (Kounavis & Berry) folds 8 input bytes per step through
   8 tables, so the steps' table loads are independent instead of one
   serial chain per byte; the tail (< 8 bytes) uses the byte table.
   [tables] is flat: table [k] at offset [k * 256], where table 0 is
   the classic byte table and table [k] advances table [k - 1] by one
   zero byte. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Unchecked reads: [update] validates the byte range, and every table
   index is masked to 8 bits. *)
let[@inline] tbl k i = Array.unsafe_get tables ((k lsl 8) lor i)
let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.update";
  let c = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let x =
      !c
      lxor (byte b p lor (byte b (p + 1) lsl 8) lor (byte b (p + 2) lsl 16)
           lor (byte b (p + 3) lsl 24))
    in
    c :=
      tbl 7 (x land 0xFF)
      lxor tbl 6 ((x lsr 8) land 0xFF)
      lxor tbl 5 ((x lsr 16) land 0xFF)
      lxor tbl 4 (x lsr 24)
      lxor tbl 3 (byte b (p + 4))
      lxor tbl 2 (byte b (p + 5))
      lxor tbl 1 (byte b (p + 6))
      lxor tbl 0 (byte b (p + 7));
    i := p + 8
  done;
  for p = stop8 to pos + len - 1 do
    c := tbl 0 ((!c lxor byte b p) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s)
