(* CRC-32 (ISO 3309 / zlib polynomial 0xEDB88320).  The build
   deliberately has no compression/checksum dependency, so the WAL
   record format (DESIGN.md §15) carries its own implementation.  Values
   are the standard reflected CRC-32, i.e. identical to zlib's crc32() —
   a record written here can be checked with any off-the-shelf tool.

   The kernel is C ([crc32_stubs.c]): carry-less-multiply folding on
   x86-64 CPUs with PCLMULQDQ, slicing-by-8 elsewhere and for short
   inputs and tails.  The call allocates nothing; the range check stays
   here, so the stub only ever sees a range inside [b]. *)

(* Builds the tables and reads the CPU's features, once, before any
   domain is spawned. *)
external init : unit -> unit = "twoplsf_crc32_init" [@@noalloc]

let () = init ()

external update_unchecked :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "twoplsf_crc32_update" "twoplsf_crc32_update_untagged"
[@@noalloc]

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.update";
  update_unchecked crc b pos len

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s)
