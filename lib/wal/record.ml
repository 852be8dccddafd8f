(* WAL record binary codec (DESIGN.md §15).

   One record per committed transaction, holding the full after-image of
   every row the transaction wrote.  Little-endian throughout:

     offset  size  field
     ------  ----  -----
          0     1  magic (0xA7)
          1     1  record type (1 = txn commit)
          2     2  table id        (u16)
          4     8  LSN             (i64)
         12     2  write count n   (u16)
         14     2  row length      (u16)
         16   n*(4+row_len)  n entries of (row id u32, after-image)
        end-4    4  CRC-32 over bytes [0, end-4)

   The CRC covers header and payload, so a torn or bit-flipped tail is
   detected by the same check.  [decode] never throws on bad input — it
   returns [Error reason] with the record left unconsumed, and the
   caller (recovery, walinspect) decides between "torn tail" and
   "corruption" from context (is anything valid after this offset?). *)

let magic = 0xA7
let type_txn = 1
let header_size = 16
let trailer_size = 4
let entry_size ~row_len = 4 + row_len
let size ~nwrites ~row_len = header_size + (nwrites * entry_size ~row_len) + trailer_size
let min_size = header_size + trailer_size

(* Limits implied by the u16 fields; [decode] rejects anything outside
   them before trusting a length to index memory. *)
let max_writes = 0xFFFF
let max_row_len = 0xFFFF

let set_u16 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))

let get_u16 b pos = Char.code (Bytes.get b pos) lor (Char.code (Bytes.get b (pos + 1)) lsl 8)

let set_u32 b pos v =
  set_u16 b pos (v land 0xFFFF);
  set_u16 b (pos + 2) ((v lsr 16) land 0xFFFF)

let get_u32 b pos = get_u16 b pos lor (get_u16 b (pos + 2) lsl 16)

let set_i64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)
let get_i64 b pos = Int64.to_int (Bytes.get_int64_le b pos)

(* Encode a commit record into [buf] at [pos].  The rows are pulled
   through callbacks so the caller (the commit window) never builds an
   intermediate list or closure: [rid i] is the i-th written row id and
   [row r] the backing bytes of row [r] (≥ [row_len] long).  Returns the
   record size in bytes. *)
let encode buf ~pos ~lsn ~table_id ~row_len ~n ~rid ~row =
  let sz = size ~nwrites:n ~row_len in
  Bytes.unsafe_set buf pos (Char.unsafe_chr magic);
  Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr type_txn);
  set_u16 buf (pos + 2) table_id;
  set_i64 buf (pos + 4) lsn;
  set_u16 buf (pos + 12) n;
  set_u16 buf (pos + 14) row_len;
  let off = ref (pos + header_size) in
  for i = 0 to n - 1 do
    let r = rid i in
    set_u32 buf !off r;
    Bytes.blit (row r) 0 buf (!off + 4) row_len;
    off := !off + 4 + row_len
  done;
  let crc = Util.Crc32.update 0 buf ~pos ~len:(sz - trailer_size) in
  set_u32 buf !off crc;
  sz

type t = {
  r_lsn : int;
  r_table_id : int;
  r_row_len : int;
  r_writes : (int * Bytes.t) array;  (** (row id, after-image) *)
}

(* Decode one record at [pos] with [avail] bytes remaining.  Every
   length field is validated before use; [Error] carries a diagnosis
   string.  "short ..." errors mean the data simply ends too early —
   the torn-tail signature when they occur at the end of the final
   segment. *)
let decode buf ~pos ~avail : (t * int, string) result =
  if avail < min_size then Error (Printf.sprintf "short header (%d bytes left)" avail)
  else if Char.code (Bytes.get buf pos) <> magic then
    Error (Printf.sprintf "bad magic 0x%02X" (Char.code (Bytes.get buf pos)))
  else if Char.code (Bytes.get buf (pos + 1)) <> type_txn then
    Error (Printf.sprintf "unknown record type %d" (Char.code (Bytes.get buf (pos + 1))))
  else begin
    let table_id = get_u16 buf (pos + 2) in
    let lsn = get_i64 buf (pos + 4) in
    let n = get_u16 buf (pos + 12) in
    let row_len = get_u16 buf (pos + 14) in
    if lsn < 1 then Error (Printf.sprintf "implausible lsn %d" lsn)
    else begin
      let sz = size ~nwrites:n ~row_len in
      if avail < sz then
        Error (Printf.sprintf "short record (need %d, have %d)" sz avail)
      else begin
        let stored = get_u32 buf (pos + sz - trailer_size) in
        let crc = Util.Crc32.update 0 buf ~pos ~len:(sz - trailer_size) in
        if stored <> crc then
          Error (Printf.sprintf "CRC mismatch (stored 0x%08X, computed 0x%08X)" stored crc)
        else begin
          let writes =
            Array.init n (fun i ->
                let off = pos + header_size + (i * (4 + row_len)) in
                (get_u32 buf off, Bytes.sub buf (off + 4) row_len))
          in
          Ok ({ r_lsn = lsn; r_table_id = table_id; r_row_len = row_len; r_writes = writes }, sz)
        end
      end
    end
  end

(* Is there a structurally valid record anywhere at or after [pos]?
   Used to discriminate a torn tail (nothing valid follows — the file
   just ends mid-record) from interior corruption (valid records after
   the bad bytes: something flipped bits inside the log).  A CRC-checked
   hit is a strong signal; requiring [lsn > after_lsn] additionally
   rejects stale bytes from a recycled buffer. *)
let find_valid buf ~pos ~len ~after_lsn =
  let limit = len - min_size in
  let rec go p =
    if p > limit then None
    else if Char.code (Bytes.get buf p) = magic then
      match decode buf ~pos:p ~avail:(len - p) with
      | Ok (r, _) when r.r_lsn > after_lsn -> Some p
      | _ -> go (p + 1)
    else go (p + 1)
  in
  go pos
