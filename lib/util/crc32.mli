(** CRC-32 (zlib polynomial, reflected) for the WAL record format
    (DESIGN.md §15).  Matches zlib's [crc32()] bit-for-bit. *)

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** [update crc b ~pos ~len] extends a running checksum (start from 0).
    @raise Invalid_argument if [pos] and [len] do not name a range
    inside [b]. *)

val bytes : ?pos:int -> ?len:int -> Bytes.t -> int
(** One-shot checksum of a byte range (defaults: from [pos] to the end
    of the buffer).
    @raise Invalid_argument on a range outside [b]. *)

val string : string -> int
