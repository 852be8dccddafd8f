(* Tests for the durability layer (DESIGN.md §15): the CRC-32 codec,
   the record format, the SPSC ring, and the WAL end to end through the
   DBx engine — durable acks, replay idempotence, torn-tail truncation,
   corruption refusal, and the fuzzy-checkpoint equivalence property
   (checkpoint + log suffix recovers the same image as the full log)
   over seeded transfer histories. *)

module Wal = Twoplsf_wal.Wal
module Record = Twoplsf_wal.Record
module Ring = Twoplsf_wal.Ring
module Crc32 = Util.Crc32

let check = Alcotest.check
let () = ignore (Util.Tid.register ())

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "twoplsf_wal_test_%d_%d" (Unix.getpid ()) !dir_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- CRC-32 ---- *)

(* Byte-at-a-time reference: the textbook reflected CRC-32, one bit per
   step, independent of the library's tables. *)
let crc32_ref b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32 () =
  (* the standard zlib check value *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "");
  let data = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.bytes data in
  let split =
    let c = Crc32.update 0 data ~pos:0 ~len:17 in
    Crc32.update c data ~pos:17 ~len:(Bytes.length data - 17)
  in
  check Alcotest.int "incremental = one-shot" whole split;
  (* every length 0..4096 at every start offset 0..15 against the
     reference: short inputs take the table kernel, longer ones the
     64-byte fold (where the CPU has one) plus a table tail of every
     size.  The reference runs once per offset, keeping its state after
     each byte. *)
  let rng = Util.Sprng.create 0xC3C3 in
  let maxlen = 4096 in
  let buf = Bytes.init (maxlen + 16) (fun _ -> Char.chr (Util.Sprng.int rng 256)) in
  for pos = 0 to 15 do
    let c = ref 0xFFFFFFFF in
    for len = 0 to maxlen do
      let want = !c lxor 0xFFFFFFFF in
      let got = Crc32.update 0 buf ~pos ~len in
      if got <> want then
        Alcotest.failf "pos %d len %d: 0x%08X, reference 0x%08X" pos len got want;
      if len < maxlen then begin
        c := !c lxor Char.code (Bytes.get buf (pos + len));
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done
      end
    done
  done;
  (* a split at every offset still chains *)
  for k = 0 to 64 do
    let c = Crc32.update 0 buf ~pos:0 ~len:k in
    check Alcotest.int
      (Printf.sprintf "split at %d" k)
      (crc32_ref buf ~pos:0 ~len:96)
      (Crc32.update c buf ~pos:k ~len:(96 - k))
  done;
  (* ... and near the block edges, on both sides of the fold's 64-byte
     minimum, in longer inputs *)
  List.iter
    (fun k ->
      List.iter
        (fun n ->
          check Alcotest.int
            (Printf.sprintf "split %d of %d" k n)
            (crc32_ref buf ~pos:0 ~len:n)
            (Crc32.update (Crc32.update 0 buf ~pos:0 ~len:k) buf ~pos:k ~len:(n - k)))
        [ 300; 4096 ])
    [ 0; 1; 7; 8; 15; 16; 63; 64; 65; 127; 128; 129; 255; 256 ];
  (* a large buffer: many fold iterations, odd tail *)
  let big = Bytes.init ((1 lsl 20) + 7) (fun _ -> Char.chr (Util.Sprng.int rng 256)) in
  check Alcotest.int "1 MiB + 7"
    (crc32_ref big ~pos:0 ~len:(Bytes.length big))
    (Crc32.bytes big);
  (* ranges outside the buffer are refused, never read *)
  List.iter
    (fun (pos, len) ->
      match Crc32.update 0 (Bytes.create 4) ~pos ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted pos %d len %d on a 4-byte buffer" pos len)
    [ (0, 100); (3, 2); (5, 0); (-1, 2); (0, -1) ];
  match Crc32.bytes ~pos:5 (Bytes.create 4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bytes accepted pos past the end"

(* ---- record codec ---- *)

(* [row r] is the image of row id [r]. *)
let encode_one ~lsn ~rids ~row ~row_len =
  let n = Array.length rids in
  let buf = Bytes.create (Record.size ~nwrites:n ~row_len) in
  let wrote =
    Record.encode buf ~pos:0 ~lsn ~table_id:3 ~row_len ~n ~rid:(fun i -> rids.(i)) ~row
  in
  check Alcotest.int "encode size" (Bytes.length buf) wrote;
  buf

let test_record_roundtrip () =
  let row_len = 16 in
  let rids = [| 7; 42; 7 |] in
  let row r = Bytes.make row_len (Char.chr (65 + (r mod 26))) in
  let buf = encode_one ~lsn:99 ~rids ~row ~row_len in
  match Record.decode buf ~pos:0 ~avail:(Bytes.length buf) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok (r, size) ->
      check Alcotest.int "size" (Bytes.length buf) size;
      check Alcotest.int "lsn" 99 r.Record.r_lsn;
      check Alcotest.int "table" 3 r.Record.r_table_id;
      check Alcotest.int "row_len" row_len r.Record.r_row_len;
      check Alcotest.int "writes" 3 (Array.length r.Record.r_writes);
      Array.iteri
        (fun i (rid, img) ->
          check Alcotest.int "rid" rids.(i) rid;
          check Alcotest.bool "image" true (Bytes.equal img (row rids.(i))))
        r.Record.r_writes

let test_record_rejects_damage () =
  let row_len = 8 in
  let buf =
    encode_one ~lsn:5 ~rids:[| 1 |] ~row:(fun _ -> Bytes.make row_len 'x') ~row_len
  in
  (* truncated: every prefix shorter than the record must fail cleanly *)
  for avail = 0 to Bytes.length buf - 1 do
    match Record.decode buf ~pos:0 ~avail with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted truncated record (avail=%d)" avail
  done;
  (* any single flipped bit must break the CRC (or the structure) *)
  for byte = 0 to Bytes.length buf - 1 do
    let copy = Bytes.copy buf in
    Bytes.set copy byte (Char.chr (Char.code (Bytes.get copy byte) lxor 0x10));
    match Record.decode copy ~pos:0 ~avail:(Bytes.length copy) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bit flip at byte %d" byte
  done;
  (* find_valid sees through garbage to a later valid record *)
  let tail =
    encode_one ~lsn:6 ~rids:[| 2 |] ~row:(fun _ -> Bytes.make row_len 'y') ~row_len
  in
  let glued = Bytes.concat Bytes.empty [ Bytes.make 13 '\xff'; tail ] in
  (match
     Record.find_valid glued ~pos:0 ~len:(Bytes.length glued) ~after_lsn:5
   with
  | Some 13 -> ()
  | Some o -> Alcotest.failf "find_valid at %d, expected 13" o
  | None -> Alcotest.fail "find_valid missed the valid record");
  (* ... but not to one at or below the LSN high-water mark *)
  match
    Record.find_valid glued ~pos:0 ~len:(Bytes.length glued) ~after_lsn:6
  with
  | None -> ()
  | Some _ -> Alcotest.fail "find_valid accepted a stale LSN"

(* ---- SPSC ring ---- *)

let test_ring () =
  let r = Ring.create ~capacity:5 in
  check Alcotest.int "capacity rounded to 2^k" 8 (Ring.capacity r);
  check Alcotest.bool "fresh ring empty" true (Ring.is_empty r);
  check Alcotest.int "empty peek" (-1) (Ring.peek r);
  for i = 1 to 8 do
    if Ring.is_full r then Alcotest.failf "full below capacity at %d" i;
    Bytes.fill (Ring.reserve r ~len:i) 0 i (Char.chr i);
    Ring.publish r ~lsn:i ~len:i
  done;
  check Alcotest.bool "full ring" true (Ring.is_full r);
  let last = ref Bytes.empty in
  for i = 1 to 8 do
    check Alcotest.int "fifo lsn" i (Ring.peek r);
    check Alcotest.int "length" i (Ring.head_len r);
    check Alcotest.string "payload" (String.make i (Char.chr i))
      (Bytes.sub_string (Ring.head_buf r) 0 i);
    last := Ring.head_buf r;
    Ring.drop r
  done;
  check Alcotest.bool "drained" true (Ring.is_empty r);
  (* on an empty ring the last record's buffer is reused, again and again *)
  let b = Ring.reserve r ~len:1 in
  check Alcotest.bool "last buffer reused" true (b == !last);
  Ring.publish r ~lsn:9 ~len:1;
  check Alcotest.bool "published from it" true (b == Ring.head_buf r);
  Ring.drop r;
  check Alcotest.bool "reused after the next record" true (b == Ring.reserve r ~len:1);
  check Alcotest.bool "larger record grows it" true
    (Bytes.length (Ring.reserve r ~len:100) >= 100)

(* ---- WAL end to end through the DBx engine ---- *)

module Durable = Dbx.Durable

let rows = 32
let conserved = rows * Durable.init_balance

(* Run [n] seeded transfers on a fresh table with a WAL attached; the
   returned table is the live post-history state. *)
let run_history ~dir ~seed ~n ~cfg =
  let tbl = Durable.make_table ~rows in
  let w = Wal.create (cfg dir) (Dbx.Cc_2plsf.wal_store tbl) in
  let cc = Dbx.Cc_2plsf.create tbl in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  ignore
    (Durable.transfers cc ~tid:(Util.Tid.get ()) ~rows (Util.Sprng.create seed)
       ~until:(fun k -> k = n));
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w;
  tbl

let recover_into_fresh ~dir =
  let tbl = Durable.make_table ~rows in
  let r = Wal.recover ~dir (Dbx.Cc_2plsf.wal_store tbl) in
  (tbl, r)

let last_segment dir =
  match List.rev (Wal.segments ~dir ()) with
  | (_, path) :: _ -> path
  | [] -> Alcotest.fail "no segments"

(* The full recovery oracle; any violation fails the test. *)
let verify_ok ~dir ~acked_floor =
  match Durable.verify ~dir ~rows ~acked_floor () with
  | Ok r -> r
  | Error v -> Alcotest.fail (Durable.violation_to_string v)

let quick_cfg ?(ckpt = 0) dir =
  Wal.config ~sync:Wal.Sync_none ~ckpt_every_bytes:ckpt ~dir ()

(* Conservation, no false ack, byte-equal double replay and LSN order
   all hold inside [verify_ok]; every one of the 300 commits was acked. *)
let test_recover_matches_live () =
  with_dir @@ fun dir ->
  let live = run_history ~dir ~seed:11 ~n:300 ~cfg:quick_cfg in
  let { Durable.table; recovery = r } = verify_ok ~dir ~acked_floor:300 in
  check Alcotest.bool "recovered = live" true
    (Durable.tables_equal live table);
  check Alcotest.bool "no torn tail on clean shutdown" false r.Wal.r_torn_tail;
  check Alcotest.int "all records replayable" 300 r.Wal.r_records

let test_durable_ack_and_metrics () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  (* real fsyncs on this one: the ack must mean flushed *)
  let w = Wal.create (Wal.config ~dir ()) store in
  Dbx.Table.set_balance tbl 0 Durable.init_balance;
  Wal.mark_dirty w ~rid:0;
  let lsn = Wal.log_commit w ~tid:(Util.Tid.get ()) ~n:1 ~rid:(fun _ -> 0) in
  Wal.wait_durable w ~lsn;
  if Wal.flushed_lsn w < lsn then Alcotest.fail "ack before flush";
  let m = Wal.metrics w in
  let get k = List.assoc k m in
  check Alcotest.int "one record" 1 (get "records");
  if get "fsyncs" < 1 then Alcotest.fail "no fsync behind a durable ack";
  Wal.stop w

let test_torn_tail_truncated () =
  with_dir @@ fun dir ->
  ignore (run_history ~dir ~seed:22 ~n:200 ~cfg:quick_cfg);
  let seg = last_segment dir in
  (* cut the last record in half: the classic crash-mid-append state *)
  let size = (Unix.stat seg).Unix.st_size in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 30);
  Unix.close fd;
  (* the oracle's own double replay runs on the truncated log *)
  let { Durable.recovery = r; _ } = verify_ok ~dir ~acked_floor:199 in
  check Alcotest.bool "torn tail detected" true r.Wal.r_torn_tail;
  check Alcotest.int "torn tail truncated" 199 r.Wal.r_records;
  (* the truncated log is now clean: recover again, no tear reported *)
  let _, r2 = recover_into_fresh ~dir in
  check Alcotest.bool "second recovery clean" false r2.Wal.r_torn_tail;
  (* garbage appended after the good prefix is also just a tear *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_string oc "\x00\x01\x02garbage";
  close_out oc;
  let _, r3 = recover_into_fresh ~dir in
  check Alcotest.bool "appended garbage = torn tail" true r3.Wal.r_torn_tail

let flip_bit_at seg off =
  let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x04));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_interior_corruption_refused () =
  with_dir @@ fun dir ->
  ignore (run_history ~dir ~seed:33 ~n:200 ~cfg:quick_cfg);
  let seg =
    match Wal.segments ~dir () with
    | (_, path) :: _ -> path
    | [] -> Alcotest.fail "no segments"
  in
  (* flip a bit in an early record: valid records follow, so under the
     process-kill crash model (strict — the page cache survives _exit)
     this is corruption, not a tear — recovery must refuse, not
     silently drop the suffix *)
  flip_bit_at seg 40;
  let tbl = Durable.make_table ~rows in
  match Wal.recover ~strict:true ~dir (Dbx.Cc_2plsf.wal_store tbl) with
  | exception Wal.Corrupt _ -> ()
  | _ -> Alcotest.fail "strict recovery accepted interior corruption"

let test_suspect_tail_truncated_lenient () =
  with_dir @@ fun dir ->
  ignore (run_history ~dir ~seed:34 ~n:200 ~cfg:quick_cfg);
  let seg = last_segment dir in
  (* same damage, lenient (default) model: on a real power loss the
     final segment's sectors can land out of order, so a valid record
     after damaged bytes is a legal crash state — recovery truncates at
     the damage and counts the discarded suffix as suspect *)
  flip_bit_at seg 40;
  let { Durable.recovery = r; _ } = verify_ok ~dir ~acked_floor:0 in
  if r.Wal.r_suspect_records = 0 then
    Alcotest.fail "lenient recovery counted no suspect records";
  check Alcotest.bool "tail truncated" true (r.Wal.r_truncated_bytes > 0);
  (* the truncated log is now clean and stable *)
  let _, r2 = recover_into_fresh ~dir in
  check Alcotest.int "second recovery clean" 0 r2.Wal.r_suspect_records

(* checkpoint + log suffix == full log: the same seeded history run
   with aggressive checkpointing and with none must recover to the same
   image (and the checkpointed side must actually have checkpointed). *)
let test_checkpoint_equivalence () =
  List.iter
    (fun seed ->
      with_dir @@ fun dir_a ->
      with_dir @@ fun dir_b ->
      let live_a =
        run_history ~dir:dir_a ~seed ~n:400 ~cfg:(quick_cfg ~ckpt:4096)
      in
      let live_b =
        run_history ~dir:dir_b ~seed ~n:400 ~cfg:quick_cfg
      in
      check Alcotest.bool "same history, same live state" true
        (Durable.tables_equal live_a live_b);
      (match Wal.read_image_info ~dir:dir_a () with
      | Some i -> check Alcotest.int "image covers the table" rows i.Wal.i_num_rows
      | None -> Alcotest.fail "aggressive checkpointing produced no image");
      let rec_a, ra = recover_into_fresh ~dir:dir_a in
      let rec_b, rb = recover_into_fresh ~dir:dir_b in
      if ra.Wal.r_image_lsn = 0 then
        Alcotest.fail "checkpointed recovery ignored the image";
      check Alcotest.bool "full-log side saw every record" true
        (rb.Wal.r_records = 400);
      check Alcotest.bool "checkpointed side replays a suffix" true
        (ra.Wal.r_records < 400);
      check Alcotest.bool "checkpoint+suffix = full log" true
        (Durable.tables_equal rec_a rec_b);
      check Alcotest.bool "both match the live image" true
        (Durable.tables_equal rec_a live_a))
    [ 1; 2; 3; 4; 5 ]

(* explicit checkpoint barrier + the mark_undo parity path: a rollback
   must close the seqlock window so the next checkpoint's copier does
   not spin forever on an odd mark *)
let test_manual_checkpoint_and_undo_marks () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  let w = Wal.create (quick_cfg dir) store in
  Wal.mark_dirty w ~rid:3;
  Wal.mark_undo w ~rid:3;
  (* duplicate undo is idempotent (parity guard) *)
  Wal.mark_undo w ~rid:3;
  Wal.checkpoint w;
  let m = Wal.metrics w in
  check Alcotest.int "checkpoint completed" 1 (List.assoc "checkpoints" m);
  Wal.stop w;
  match Wal.read_image_info ~dir () with
  | Some i ->
      check Alcotest.int "image rows" rows i.Wal.i_num_rows;
      check Alcotest.int "image row_len" Dbx.Table.tuple_size i.Wal.i_row_len
  | None -> Alcotest.fail "manual checkpoint wrote no image"

(* multi-domain: concurrent committers through the rings and the
   LSN-merging flush leader, then recovery of the merged log *)
let test_concurrent_commits_recover () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  let w = Wal.create (quick_cfg ~ckpt:8192 dir) store in
  let cc = Dbx.Cc_2plsf.create tbl in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  let per_worker = 400 in
  ignore
    (Harness.Exec.run_each ~threads:4 (fun i ->
         Durable.transfers cc ~tid:(Util.Tid.get ()) ~rows
           (Util.Sprng.create (100 + i))
           ~until:(fun k -> k = per_worker)));
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w;
  let { Durable.table; recovery = r } =
    verify_ok ~dir ~acked_floor:(4 * per_worker)
  in
  (* every commit drew a distinct LSN and the drain flushed them all *)
  check Alcotest.int "lsn watermark = total commits" (4 * per_worker)
    r.Wal.r_max_lsn;
  check Alcotest.bool "concurrent recovery matches live" true
    (Durable.tables_equal table tbl)

(* Logging ahead of the waits: one worker fills its ring twice over.
   With no log thread, the committer whose ring is full must drain the
   rings itself; then one wait covers every record. *)
let test_full_ring_drains () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let w = Wal.create (quick_cfg dir) (Dbx.Cc_2plsf.wal_store tbl) in
  let tid = Util.Tid.get () in
  let n = 2 * Wal.ring_capacity in
  let last = ref 0 in
  for i = 1 to n do
    let rid = i mod rows in
    Wal.mark_dirty w ~rid;
    last := Wal.log_commit w ~tid ~n:1 ~rid:(fun _ -> rid)
  done;
  Wal.wait_durable w ~lsn:!last;
  check Alcotest.int "one wait acks every record" n (Wal.flushed_lsn w);
  Wal.stop w;
  let _, r = recover_into_fresh ~dir in
  check Alcotest.int "every record replayed" n r.Wal.r_records;
  check Alcotest.int "lsn watermark" n r.Wal.r_max_lsn

(* The flush visits only the rings below the highest tid ever logged
   through; a log written only through tid 7 must still reach disk. *)
let test_high_tid_durable () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let w = Wal.create (quick_cfg dir) (Dbx.Cc_2plsf.wal_store tbl) in
  let last = ref 0 in
  for i = 1 to 5 do
    Wal.mark_dirty w ~rid:i;
    last := Wal.log_commit w ~tid:7 ~n:1 ~rid:(fun _ -> i);
    Wal.wait_durable w ~lsn:!last
  done;
  check Alcotest.int "acked through tid 7" 5 (Wal.flushed_lsn w);
  Wal.stop w;
  let _, r = recover_into_fresh ~dir in
  check Alcotest.int "every record replayed" 5 r.Wal.r_records

(* The commit record is encoded in place in the ring and copied into
   the flush batch: a steady single-worker stream of commits allocates
   no record.  The bound leaves room for a few stray words, far below
   the ~110 words one 4-write record would take. *)
let test_commit_allocation_free () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let w = Wal.create (quick_cfg dir) (Dbx.Cc_2plsf.wal_store tbl) in
  let tid = Util.Tid.get () in
  let rid i = i * 5 in
  let round () =
    for i = 0 to 3 do
      Wal.mark_dirty w ~rid:(rid i)
    done;
    let lsn = Wal.log_commit w ~tid ~n:4 ~rid in
    Wal.wait_durable w ~lsn
  in
  (* warm up: every ring slot gets its buffer *)
  for _ = 1 to 2 * Wal.ring_capacity do
    round ()
  done;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let per_commit = (Gc.minor_words () -. before) /. float rounds in
  Wal.stop w;
  if per_commit > 4. then
    Alcotest.failf "%.1f minor words per durable commit (bound 4)" per_commit

(* ---- the recovery oracle rejects what it must ---- *)

let violation =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Durable.violation_to_string v))
    ( = )

let rejected ~dir ~acked_floor =
  match Durable.verify ~dir ~rows ~acked_floor () with
  | Ok _ -> Alcotest.fail "the oracle accepted the log"
  | Error v -> v

(* One commit record whose row image is off by one: the recovered table
   no longer sums to the conserved total. *)
let test_oracle_conservation () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let w = Wal.create (quick_cfg dir) (Dbx.Cc_2plsf.wal_store tbl) in
  Dbx.Table.set_balance tbl 0 (Durable.init_balance + 1);
  Wal.mark_dirty w ~rid:0;
  let lsn = Wal.log_commit w ~tid:(Util.Tid.get ()) ~n:1 ~rid:(fun _ -> 0) in
  Wal.wait_durable w ~lsn;
  Wal.stop w;
  check violation "off by one"
    (Durable.Conservation { sum = conserved + 1; expected = conserved })
    (rejected ~dir ~acked_floor:0)

(* A clean log of 50 commits, but the engine claimed LSN 51 durable. *)
let test_oracle_false_ack () =
  with_dir @@ fun dir ->
  ignore (run_history ~dir ~seed:44 ~n:50 ~cfg:quick_cfg);
  ignore (verify_ok ~dir ~acked_floor:50);
  check violation "ack above the log"
    (Durable.False_ack { recovered = 50; acked = 51 })
    (rejected ~dir ~acked_floor:51)

(* The first record appended again after the tail: a structurally valid
   log that recovery replays (the stale row writes are skipped), so only
   the LSN-order scan can see the damage. *)
let test_oracle_lsn_order () =
  with_dir @@ fun dir ->
  ignore (run_history ~dir ~seed:45 ~n:50 ~cfg:quick_cfg);
  let seg = last_segment dir in
  let buf = Twoplsf_wal.Wal_io.read_file Twoplsf_wal.Wal_io.passthrough seg in
  let size =
    match Record.decode buf ~pos:0 ~avail:(Bytes.length buf) with
    | Ok (_, size) -> size
    | Error e -> Alcotest.failf "first record undecodable: %s" e
  in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_bytes oc (Bytes.sub buf 0 size);
  close_out oc;
  check violation "repeated LSN" Durable.Lsn_order
    (rejected ~dir ~acked_floor:50)

(* ---- WAL metric families on the exporter ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_wal_metric_families () =
  with_dir @@ fun dir ->
  let tbl = Durable.make_table ~rows in
  let w = Wal.create (quick_cfg dir) (Dbx.Cc_2plsf.wal_store tbl) in
  Dbx.Wal_obs.register w;
  Fun.protect
    ~finally:(fun () ->
      Dbx.Wal_obs.unregister ();
      Wal.stop w)
    (fun () ->
      let body = Twoplsf_obs.Exporter.render () in
      List.iter
        (fun needle ->
          if not (contains body needle) then
            Alcotest.failf "render missing %S" needle)
        [
          "# TYPE twoplsf_wal_records counter";
          "# TYPE twoplsf_wal_fsyncs counter";
          "# TYPE twoplsf_wal_flushed_lsn gauge";
          "twoplsf_wal_checkpoints 0";
        ];
      Dbx.Wal_obs.unregister ();
      let body' = Twoplsf_obs.Exporter.render () in
      if contains body' "twoplsf_wal_records" then
        Alcotest.fail "unregister left the provider installed")

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32;
          Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
          Alcotest.test_case "record rejects damage" `Quick
            test_record_rejects_damage;
          Alcotest.test_case "spsc ring" `Quick test_ring;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recover matches live" `Quick
            test_recover_matches_live;
          Alcotest.test_case "durable ack implies fsync" `Quick
            test_durable_ack_and_metrics;
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "interior corruption refused (strict)" `Quick
            test_interior_corruption_refused;
          Alcotest.test_case "suspect tail truncated (lenient)" `Quick
            test_suspect_tail_truncated_lenient;
          Alcotest.test_case "checkpoint+suffix = full log" `Quick
            test_checkpoint_equivalence;
          Alcotest.test_case "manual checkpoint, undo marks" `Quick
            test_manual_checkpoint_and_undo_marks;
          Alcotest.test_case "concurrent commits recover" `Quick
            test_concurrent_commits_recover;
          Alcotest.test_case "full ring drained by its committer" `Quick
            test_full_ring_drains;
          Alcotest.test_case "a log written through tid 7 is durable" `Quick
            test_high_tid_durable;
          Alcotest.test_case "durable commit allocates no record" `Quick
            test_commit_allocation_free;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rejects non-conservation" `Quick
            test_oracle_conservation;
          Alcotest.test_case "rejects a false ack" `Quick test_oracle_false_ack;
          Alcotest.test_case "rejects LSN disorder" `Quick test_oracle_lsn_order;
        ] );
      ( "observability",
        [
          Alcotest.test_case "exporter families" `Quick
            test_wal_metric_families;
        ] );
    ]
