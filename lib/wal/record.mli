(** WAL record binary codec (DESIGN.md §15): one CRC-32-sealed,
    LSN-stamped commit record per transaction, carrying full after-images
    of every written row.  Little-endian; see [record.ml] for the layout. *)

val magic : int
(** First byte of every record: 0xA7. *)

val header_size : int
val trailer_size : int
val min_size : int

val size : nwrites:int -> row_len:int -> int
(** On-disk size of a record with [nwrites] entries. *)

val max_writes : int
val max_row_len : int
(** Field-width limits (u16); [encode] callers must respect them. *)

val encode :
  Bytes.t ->
  pos:int ->
  lsn:int ->
  table_id:int ->
  row_len:int ->
  n:int ->
  rid:(int -> int) ->
  row:(int -> Bytes.t) ->
  int
(** Encode a commit record into the buffer; rows are pulled through the
    callbacks (no intermediate list): [rid i] is the i-th written row
    id, [row r] the bytes of row [r].  Returns bytes written, i.e.
    [size ~nwrites:n ~row_len]. *)

type t = {
  r_lsn : int;
  r_table_id : int;
  r_row_len : int;
  r_writes : (int * Bytes.t) array;  (** (row id, after-image) *)
}

val decode : Bytes.t -> pos:int -> avail:int -> (t * int, string) result
(** Decode one record; [Ok (record, size)] or [Error diagnosis].  Never
    raises on malformed input: every length field is validated before
    use and the CRC must match. *)

val find_valid : Bytes.t -> pos:int -> len:int -> after_lsn:int -> int option
(** Offset of the first structurally valid record (magic + lengths +
    CRC, with LSN > [after_lsn]) at or after [pos], if any.  Recovery
    uses this to discriminate torn tails (no valid record follows) from
    interior corruption (valid records after the bad bytes). *)
