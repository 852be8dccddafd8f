(* Per-table write-ahead redo log with group commit, fuzzy checkpoints
   and crash recovery (DESIGN.md §15), running entirely through the
   storage-fault VFS (Wal_io, DESIGN.md §16).

   Shape of the protocol:

   - Workers call [log_commit] inside the 2PLSF commit window (all
     write-locks held), which draws an LSN with one fetch-and-add,
     seals a CRC-32 commit record holding full after-images in place in
     a slot of the worker's SPSC ring, and publishes it.  Because the
     draw happens while the locks serialize conflicting transactions,
     LSN order is consistent with the per-row serialization order — the
     property that makes redo-by-ascending-LSN reconstruct a
     serializable state.

   - Leader/follower group commit (PostgreSQL's XLogFlush, Aether): a
     worker in [wait_durable] that takes the [leader] flag with one CAS
     copies the *contiguous* LSN prefix out of the rings into one batch
     and flushes it itself: one write and one fsync per batch, covering
     every record published so far.  Only the rings that were ever
     pushed to are visited, and only a record that arrives ahead of a
     smaller LSN (which needs two workers) is stashed, copied, in a
     reorder buffer (min-heap on LSN) until the gap closes.  Workers
     that find a leader active wait on [cond] and retry when it leaves,
     so concurrent committers batch behind one fsync.  There is no log
     thread: the flush is a plain function run on a committing worker,
     after that worker released its locks.
     Strict LSN-ordered flushing is a correctness requirement, not an
     optimisation: if transaction B read A's write, B's record must not
     reach disk while A's is lost, or the recovered image exposes a
     read from a transaction that never happened.  Flushing the gap-free
     prefix makes [flushed >= my_lsn] a sound durability ack.  A gap
     (an LSN drawn but not yet published) only delays the leader
     briefly — draw-to-publish is a handful of instructions inside the
     commit window, interruptible only by process death (which is the
     crash being simulated) — and the leader waits it out with the flag
     released.

   - Fuzzy checkpoints use a per-row seqlock: [marks.(rid)] is a
     monotone counter, odd while the row has an uncommitted in-place
     write, bumped even at commit (after [row_lsn.(rid)] is set) or at
     rollback (after the undo blit).  The counter never returns to a
     previous value, so the copier's read-mark / copy / re-read-mark
     protocol cannot accept a torn or dirty row.  The checkpoint image
     carries each row's committed LSN; recovery loads it as the per-row
     replay high-water mark, which is what makes replay idempotent and
     lets the checkpoint truncate every older segment.

   Failure model (DESIGN.md §16): transient I/O errors are retried with
   capped backoff; a permanent error — and *any* fsync failure, per the
   fsyncgate semantics — poisons the log: [failed] is set, the
   durability watermark freezes, every blocked [wait_durable] and
   [checkpoint] waiter is woken to raise [Degraded], and new
   [log_commit] calls refuse immediately.  Records drained after the
   poison are discarded (they can never be acked).  Nothing is ever
   acked that did not survive an fsync.

   What is durable: effects of transactions whose [wait_durable]
   returned.  What is not: transactions still in rings or unflushed
   batches at the kill — they were never acknowledged.  The log carries
   redo only; there is no undo on disk because in-place writes are only
   published (marked even / LSN-stamped) at commit. *)

module Chaos = Twoplsf_chaos.Chaos

type sync_mode = Sync_fsync | Sync_none

type config = {
  dir : string;
  sync : sync_mode;
  ckpt_every_bytes : int;  (* 0 = manual checkpoints only *)
  io : Wal_io.t;
}

let config ?(sync = Sync_fsync) ?(ckpt_every_bytes = 0) ?(io = Wal_io.passthrough)
    ~dir () =
  { dir; sync; ckpt_every_bytes; io }

(* Records per worker ring.  [Cc_2plsf] waits for durability after every
   commit, so a ring holds at most one record there; a caller that logs
   ahead of its waits drains the rings itself when one fills. *)
let ring_capacity = 256

type store = {
  table_id : int;
  num_rows : int;
  row_len : int;
  read_row : int -> Bytes.t;  (* backing bytes of a row, >= row_len long *)
  write_row : int -> Bytes.t -> unit;
}

exception Degraded of string

(* ------------------------------------------------------------------ *)
(* File layout helpers                                                *)

let seg_name seq = Printf.sprintf "%08d.seg" seq
let seg_path dir seq = Filename.concat dir (seg_name seq)
let image_path dir = Filename.concat dir "checkpoint.img"
let image_tmp_path dir = Filename.concat dir "checkpoint.tmp"

let parse_seg name =
  if String.length name = 12 && Filename.check_suffix name ".seg" then
    int_of_string_opt (String.sub name 0 8)
  else None

let segments ?(io = Wal_io.passthrough) ~dir () =
  io.Wal_io.io_readdir dir |> Array.to_list
  |> List.filter_map (fun n ->
         match parse_seg n with
         | Some seq -> Some (seq, Filename.concat dir n)
         | None -> None)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Checkpoint image codec                                             *)

let image_magic = "2PLSFCKP"
let image_version = 1
let image_header_size = 40

let image_size st = image_header_size + (st.num_rows * (8 + st.row_len)) + 4
let image_row_off st rid = image_header_size + (rid * (8 + st.row_len))

let set_u32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)
let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF
let set_i64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)
let get_i64 b pos = Int64.to_int (Bytes.get_int64_le b pos)

type image_info = {
  i_table_id : int;
  i_num_rows : int;
  i_row_len : int;
  i_start_lsn : int;
  i_end_lsn : int;
}

exception Corrupt of string

let corruptf fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Validate an image buffer: magic, version, geometry, whole-file CRC.
   Returns the header. *)
let check_image buf =
  let len = Bytes.length buf in
  if len < image_header_size + 4 then corruptf "checkpoint image too short (%d bytes)" len;
  if Bytes.sub_string buf 0 8 <> image_magic then corruptf "checkpoint image: bad magic";
  let version = get_u32 buf 8 in
  if version <> image_version then corruptf "checkpoint image: unknown version %d" version;
  let info =
    {
      i_table_id = get_u32 buf 12;
      i_num_rows = get_u32 buf 16;
      i_row_len = get_u32 buf 20;
      i_start_lsn = get_i64 buf 24;
      i_end_lsn = get_i64 buf 32;
    }
  in
  let expect = image_header_size + (info.i_num_rows * (8 + info.i_row_len)) + 4 in
  if len <> expect then
    corruptf "checkpoint image: size %d does not match geometry (expected %d)" len expect;
  let stored = get_u32 buf (len - 4) in
  let crc = Util.Crc32.bytes ~len:(len - 4) buf in
  if stored <> crc then
    corruptf "checkpoint image: CRC mismatch (stored 0x%08X, computed 0x%08X)" stored crc;
  info

let read_image_info ?(io = Wal_io.passthrough) ~dir () =
  match Wal_io.read_file io (image_path dir) with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | buf -> Some (check_image buf)

(* ------------------------------------------------------------------ *)
(* Reorder buffer: min-heap on LSN, leader-owned.  It holds copies of
   records drained ahead of a smaller LSN still in another ring.      *)

module Heap = struct
  type h = { mutable lsns : int array; mutable bufs : Bytes.t array; mutable len : int }

  let create () = { lsns = Array.make 64 0; bufs = Array.make 64 Bytes.empty; len = 0 }

  let grow h =
    let cap = Array.length h.lsns * 2 in
    let lsns = Array.make cap 0 and bufs = Array.make cap Bytes.empty in
    Array.blit h.lsns 0 lsns 0 h.len;
    Array.blit h.bufs 0 bufs 0 h.len;
    h.lsns <- lsns;
    h.bufs <- bufs

  let swap h i j =
    let l = h.lsns.(i) and b = h.bufs.(i) in
    h.lsns.(i) <- h.lsns.(j);
    h.bufs.(i) <- h.bufs.(j);
    h.lsns.(j) <- l;
    h.bufs.(j) <- b

  let add h lsn buf =
    if h.len = Array.length h.lsns then grow h;
    h.lsns.(h.len) <- lsn;
    h.bufs.(h.len) <- buf;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && h.lsns.((!i - 1) / 2) > h.lsns.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let min_lsn h = if h.len = 0 then -1 else h.lsns.(0)

  let pop_min h =
    let buf = h.bufs.(0) in
    h.len <- h.len - 1;
    h.lsns.(0) <- h.lsns.(h.len);
    h.bufs.(0) <- h.bufs.(h.len);
    h.bufs.(h.len) <- Bytes.empty;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.len && h.lsns.(l) < h.lsns.(!s) then s := l;
      if r < h.len && h.lsns.(r) < h.lsns.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        swap h !i !s;
        i := !s
      end
    done;
    buf

  let is_empty h = h.len = 0

  let clear h =
    for i = 0 to h.len - 1 do
      h.bufs.(i) <- Bytes.empty
    done;
    h.len <- 0
end

type t = {
  cfg : config;
  store : store;
  next_lsn : int Atomic.t;
  marks : int Atomic.t array;  (* per-row seqlock counters *)
  row_lsn : int array;  (* committed LSN per row; written in the odd window *)
  rings : Ring.t array;  (* one per worker tid *)
  live : int Atomic.t;
      (* rings [0, live) are the only ones ever pushed to; raised before
         a worker's first publication, so a drain can stop there *)
  flushed : int Atomic.t;  (* highest LSN durable on disk *)
  failed : string option Atomic.t;  (* poison: permanent log-device failure *)
  mu : Mutex.t;
  cond : Condition.t;  (* [flushed], [failed] or [leader] changed; under [mu] *)
  leader : bool Atomic.t;
  (* Leader-owned state below: only the domain that set [leader] from
     false to true touches it, until it stores false again.  The CAS and
     the releasing store order one leader's accesses before the next's. *)
  heap : Heap.h;
  (* The next write: the records [flushed + 1 .. batch_last], contiguous,
     in its first [batch_len] bytes. *)
  mutable batch : Bytes.t;
  mutable batch_len : int;
  mutable batch_last : int;
  (* The checkpoint image, reused: a table-sized buffer per checkpoint
     would be garbage the major GC reclaims late. *)
  mutable image : Bytes.t;
  mutable fd : Wal_io.file;
  mutable seg_seq : int;
  mutable seg_bytes : int;
  mutable bytes_since_ckpt : int;
  mutable stopped : bool;
  (* Metrics, exported as twoplsf_wal_* families. *)
  m_records : int Atomic.t;
  m_batches : int Atomic.t;
  m_fsyncs : int Atomic.t;
  m_bytes : int Atomic.t;
  m_checkpoints : int Atomic.t;
  m_ckpt_lsn : int Atomic.t;
  m_io_retries : int Atomic.t;
  m_fsync_failures : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Failure handling                                                   *)

let broadcast t =
  Mutex.lock t.mu;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

let poison t reason = if Atomic.compare_and_set t.failed None (Some reason) then broadcast t

let degraded t = Atomic.get t.failed

let describe_exn = function
  | Wal_io.Io_error e ->
      Printf.sprintf "%s %s: %s" e.op e.path (Unix.error_message e.error)
  | Unix.Unix_error (err, op, path) ->
      Printf.sprintf "%s %s: %s" op path (Unix.error_message err)
  | e -> Printexc.to_string e

let transient_exn = function Wal_io.Io_error e -> e.transient | _ -> false

let max_retries = 5
let backoff attempt = Unix.sleepf (0.0005 *. float (1 lsl min attempt 4))

(* Run a leader io thunk with capped-backoff retries on transient
   failures.  Permanent failures and an exhausted budget propagate. *)
let retrying t f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception ((Wal_io.Io_error _ | Unix.Unix_error _) as e)
      when transient_exn e && attempt < max_retries ->
        Atomic.incr t.m_io_retries;
        backoff attempt;
        go (attempt + 1)
  in
  go 0

(* A failed fsync is never retried: the unflushed pages may already be
   gone from the cache, so "fsync again and see it succeed" would
   acknowledge data that was lost (the fsyncgate bug).  Poison. *)
let guarded_fsync t (file : Wal_io.file) ~what =
  match file.f_fsync () with
  | () -> true
  | exception ((Wal_io.Io_error _ | Unix.Unix_error _) as e) ->
      Atomic.incr t.m_fsync_failures;
      poison t (Printf.sprintf "%s: %s" what (describe_exn e));
      false

let guarded_fsync_dir t ~what =
  match t.cfg.io.Wal_io.io_fsync_dir t.cfg.dir with
  | () -> true
  | exception ((Wal_io.Io_error _ | Unix.Unix_error _) as e) ->
      Atomic.incr t.m_fsync_failures;
      poison t (Printf.sprintf "%s: %s" what (describe_exn e));
      false

(* ------------------------------------------------------------------ *)
(* The leader flag                                                    *)

let try_lead t = Atomic.compare_and_set t.leader false true

(* Hand the flag back and wake every waiter: followers blocked on an
   active leader retry, and one of them may take over. *)
let release t =
  Atomic.set t.leader false;
  broadcast t

(* Block until this domain holds the flag. *)
let rec acquire t =
  if not (try_lead t) then begin
    Mutex.lock t.mu;
    while Atomic.get t.leader do
      Condition.wait t.cond t.mu
    done;
    Mutex.unlock t.mu;
    acquire t
  end

(* Run [f t] as leader (the flag is held) and always release the flag.
   Io failures poison inside [f]; anything else escaping it poisons
   too, so followers raise [Degraded] rather than waiting on a log
   nobody can flush. *)
let lead t f =
  if t.stopped then begin
    release t;
    invalid_arg "Wal: log used after stop"
  end;
  (match f t with
  | () -> ()
  | exception e -> poison t (Printf.sprintf "log leader died: %s" (describe_exn e)));
  release t

let append t buf ~len ~lsn =
  let need = t.batch_len + len in
  if need > Bytes.length t.batch then begin
    let b = Bytes.create (max need (2 * Bytes.length t.batch)) in
    Bytes.blit t.batch 0 b 0 t.batch_len;
    t.batch <- b
  end;
  Bytes.blit buf 0 t.batch t.batch_len len;
  t.batch_len <- need;
  t.batch_last <- lsn

(* Take every published record off the live rings: the one extending
   the batch's contiguous prefix is copied into the batch (and may
   unblock stashed ones), any other into the reorder buffer.  A record
   is copied before its slot is dropped.  On a poisoned log everything
   is discarded instead: it can never be acked. *)
let drain_rings t =
  for i = 0 to Atomic.get t.live - 1 do
    let ring = t.rings.(i) in
    let lsn = ref (Ring.peek ring) in
    while !lsn >= 0 do
      let len = Ring.head_len ring in
      if !lsn = t.batch_last + 1 then begin
        append t (Ring.head_buf ring) ~len ~lsn:!lsn;
        while Heap.min_lsn t.heap = t.batch_last + 1 do
          let b = Heap.pop_min t.heap in
          append t b ~len:(Bytes.length b) ~lsn:(t.batch_last + 1)
        done
      end
      else Heap.add t.heap !lsn (Bytes.sub (Ring.head_buf ring) 0 len);
      Ring.drop ring;
      lsn := Ring.peek ring
    done
  done;
  if Atomic.get t.failed <> None then begin
    Heap.clear t.heap;
    t.batch_len <- 0
  end

let rings_empty t =
  let rec go i = i < 0 || (Ring.is_empty t.rings.(i) && go (i - 1)) in
  go (Atomic.get t.live - 1)

(* ------------------------------------------------------------------ *)
(* Commit-window API (caller holds the row's write locks)             *)

let mark_dirty t ~rid =
  let m = Atomic.get t.marks.(rid) in
  if m land 1 = 0 then Atomic.set t.marks.(rid) (m + 1)

let mark_undo t ~rid =
  let m = Atomic.get t.marks.(rid) in
  if m land 1 = 1 then Atomic.set t.marks.(rid) (m + 1)

(* The worker's ring is full.  Nothing drains it in the background, so
   take the flag and move the rings into the batch — no fsync is needed
   to free slots, and none may run here: the caller holds its write
   locks. *)
let make_room t ring =
  let bo = Util.Backoff.create () in
  while Ring.is_full ring do
    if try_lead t then lead t drain_rings else Util.Backoff.once bo
  done

let rec note_live t tid =
  let live = Atomic.get t.live in
  if tid >= live && not (Atomic.compare_and_set t.live live (tid + 1)) then note_live t tid

let log_commit t ~tid ~n ~rid =
  (* Refuse before mutating anything: the caller still holds its locks
     and undo images, so it can roll back cleanly and turn this into a
     typed read-only abort. *)
  (match Atomic.get t.failed with
  | Some reason -> raise (Degraded reason)
  | None -> ());
  let ring = t.rings.(tid) in
  if tid >= Atomic.get t.live then note_live t tid;
  (* Room first, so no LSN is drawn-but-unpublished while waiting. *)
  if Ring.is_full ring then make_room t ring;
  let st = t.store in
  let lsn = Atomic.fetch_and_add t.next_lsn 1 in
  (* Stamp every written row's committed LSN and close its seqlock
     window.  Duplicate rids in the write list are parity-guarded. *)
  for i = 0 to n - 1 do
    let r = rid i in
    let m = Atomic.get t.marks.(r) in
    if m land 1 = 1 then begin
      t.row_lsn.(r) <- lsn;
      Atomic.set t.marks.(r) (m + 1)
    end
  done;
  let len = Record.size ~nwrites:n ~row_len:st.row_len in
  ignore
    (Record.encode (Ring.reserve ring ~len) ~pos:0 ~lsn ~table_id:st.table_id
       ~row_len:st.row_len ~n ~rid ~row:st.read_row);
  (* LSN drawn but not yet published: a kill here leaves a gap that
     recovery never sees (nothing after it can be contiguous-flushed). *)
  if !Chaos.on then Chaos.point Chaos.Wal_append;
  Ring.publish ring ~lsn ~len;
  Atomic.incr t.m_records;
  lsn

let flushed_lsn t = Atomic.get t.flushed

(* ------------------------------------------------------------------ *)
(* Leader work: flush and checkpoint                                  *)

let open_segment io dir seq = io.Wal_io.io_create (seg_path dir seq)

(* Write the batch from byte [pos] on, with [retrying]'s budget and
   backoff, inlined so a flush builds no closure.  A transient failure
   resumes from [pos]: the injector and Unix both fail without a partial
   transfer, so no byte is ever written twice.  Poisons and returns
   false on a permanent failure or an exhausted budget. *)
let rec write_batch t ~pos ~attempt =
  pos >= t.batch_len
  ||
  match t.fd.Wal_io.f_write t.batch ~pos ~len:(t.batch_len - pos) with
  | n -> write_batch t ~pos:(pos + n) ~attempt
  | exception ((Wal_io.Io_error _ | Unix.Unix_error _) as e)
    when transient_exn e && attempt < max_retries ->
      Atomic.incr t.m_io_retries;
      backoff attempt;
      write_batch t ~pos ~attempt:(attempt + 1)
  | exception ((Wal_io.Io_error _ | Unix.Unix_error _) as e) ->
      poison t (Printf.sprintf "segment append: %s" (describe_exn e));
      false

(* Flush the batch (the contiguous LSN prefix drained so far): one
   write, one fsync, one broadcast.  Returns true if anything was
   flushed; false also covers "the log just got poisoned". *)
let flush_batch t =
  let len = t.batch_len and last = t.batch_last in
  if len = 0 then false
  else begin
    if not (write_batch t ~pos:0 ~attempt:0) then false
    else begin
      if !Chaos.on then Chaos.point Chaos.Wal_fsync;
      let synced =
        match t.cfg.sync with
        | Sync_fsync ->
            if guarded_fsync t t.fd ~what:"segment fsync" then begin
              Atomic.incr t.m_fsyncs;
              true
            end
            else false
        | Sync_none -> true
      in
      if not synced then false
      else begin
        t.batch_len <- 0;
        t.seg_bytes <- t.seg_bytes + len;
        t.bytes_since_ckpt <- t.bytes_since_ckpt + len;
        Atomic.incr t.m_batches;
        ignore (Atomic.fetch_and_add t.m_bytes len);
        Mutex.lock t.mu;
        Atomic.set t.flushed last;
        Condition.broadcast t.cond;
        Mutex.unlock t.mu;
        true
      end
    end
  end

exception Bail

(* Fuzzy checkpoint, run by the leader.

   1. Pin [start_lsn := next_lsn] and flush everything below it.  Every
      record in the current segments now has lsn < start_lsn (flushed
      records are always below next_lsn by construction).
   2. Rotate to a fresh segment.
   3. Seqlock-copy every row (payload + committed row LSN).  The copy
      happens after step 1's flush, which happens after those records'
      payload writes — so the image reflects *at least* every effect in
      the old segments, each stamped with its committed LSN.
   4. Write image to a temp file, fsync, atomically rename, fsync dir.
   5. Delete the old segments: all their records have lsn < start_lsn
      and are provably reflected in the image (with per-row LSNs that
      make replaying any surviving duplicate a no-op).

   Waits (a gap below [start_lsn], a row mid-write) drain the rings, so
   a committer whose ring filled is never stuck behind the leader.

   Any I/O failure along the way poisons the log and abandons the
   checkpoint; the previous image and segments stay authoritative (the
   tmp file and a fresh empty segment are the only possible litter, and
   recovery discards both). *)
let do_checkpoint t =
  if !Chaos.on then Chaos.point Chaos.Wal_checkpoint;
  let io = t.cfg.io in
  let st = t.store in
  let start_lsn = Atomic.get t.next_lsn in
  let bo = Util.Backoff.create () in
  while Atomic.get t.failed = None && Atomic.get t.flushed < start_lsn - 1 do
    drain_rings t;
    if not (flush_batch t) then Util.Backoff.once bo
  done;
  if Atomic.get t.failed = None then begin
    let require b = if not b then raise Bail in
    try
      (match t.cfg.sync with
      | Sync_fsync -> require (guarded_fsync t t.fd ~what:"checkpoint rotate fsync")
      | Sync_none -> ());
      t.fd.Wal_io.f_close ();
      let old_seq = t.seg_seq in
      t.seg_seq <- t.seg_seq + 1;
      t.fd <- retrying t (fun () -> open_segment io t.cfg.dir t.seg_seq);
      t.seg_bytes <- 0;
      require (guarded_fsync_dir t ~what:"checkpoint rotate dir fsync");
      if Bytes.length t.image <> image_size st then t.image <- Bytes.create (image_size st);
      let img = t.image in
      Bytes.blit_string image_magic 0 img 0 8;
      set_u32 img 8 image_version;
      set_u32 img 12 st.table_id;
      set_u32 img 16 st.num_rows;
      set_u32 img 20 st.row_len;
      set_i64 img 24 start_lsn;
      (* Seqlock copy: retry a row until its mark is even and unchanged
         across the copy; a row mid-write drains the rings and waits,
         paced by the one [bo] of this checkpoint. *)
      for rid = 0 to st.num_rows - 1 do
        let off = image_row_off st rid in
        let copied = ref false in
        while not !copied do
          let m1 = Atomic.get t.marks.(rid) in
          if m1 land 1 = 1 then begin
            drain_rings t;
            Util.Backoff.once bo
          end
          else begin
            let lsn = t.row_lsn.(rid) in
            Bytes.blit (st.read_row rid) 0 img (off + 8) st.row_len;
            if Atomic.get t.marks.(rid) = m1 then begin
              set_i64 img off lsn;
              copied := true
            end
          end
        done
      done;
      set_i64 img 32 (Atomic.get t.next_lsn - 1);
      let crc = Util.Crc32.bytes ~len:(Bytes.length img - 4) img in
      set_u32 img (Bytes.length img - 4) crc;
      let tmp = image_tmp_path t.cfg.dir in
      (* A transient failure mid-image restarts the tmp file from
         scratch (O_TRUNC recreate) — a resumed write could otherwise
         duplicate bytes. *)
      let tmp_fd =
        retrying t (fun () ->
            let fd = io.Wal_io.io_create tmp in
            match Wal_io.write_string fd (Bytes.unsafe_to_string img) with
            | () -> fd
            | exception e ->
                fd.Wal_io.f_close ();
                raise e)
      in
      (match t.cfg.sync with
      | Sync_fsync ->
          if not (guarded_fsync t tmp_fd ~what:"checkpoint image fsync") then begin
            tmp_fd.Wal_io.f_close ();
            raise Bail
          end
      | Sync_none -> ());
      tmp_fd.Wal_io.f_close ();
      (* A kill in this window leaves checkpoint.tmp plus the old image
         and all old segments — recovery ignores the tmp and replays as
         before. *)
      if !Chaos.on then Chaos.point Chaos.Wal_checkpoint;
      retrying t (fun () -> io.Wal_io.io_rename tmp (image_path t.cfg.dir));
      require (guarded_fsync_dir t ~what:"checkpoint install dir fsync");
      for seq = 0 to old_seq do
        (* Leftover segments are harmless (replay is idempotent); an
           unlink failure is not worth poisoning over. *)
        try io.Wal_io.io_unlink (seg_path t.cfg.dir seq)
        with Wal_io.Io_error _ | Unix.Unix_error _ -> ()
      done;
      t.bytes_since_ckpt <- 0;
      Atomic.incr t.m_checkpoints;
      Atomic.set t.m_ckpt_lsn (start_lsn - 1)
    with
    | Bail -> ()
    | (Wal_io.Io_error _ | Unix.Unix_error _) as e ->
        poison t (Printf.sprintf "checkpoint: %s" (describe_exn e))
  end

(* One leader turn of [wait_durable]: flush what is contiguous, then
   the auto-checkpoint if one is due. *)
let flush_turn t =
  drain_rings t;
  if Atomic.get t.failed = None then begin
    ignore (flush_batch t);
    if t.cfg.ckpt_every_bytes > 0 && t.bytes_since_ckpt >= t.cfg.ckpt_every_bytes then
      do_checkpoint t
  end

(* [bo] paces retries behind a gap; created on the first one only. *)
let rec await t lsn bo =
  if Atomic.get t.flushed < lsn then
    match Atomic.get t.failed with
    | Some reason -> raise (Degraded reason)
    | None ->
        if try_lead t then begin
          lead t flush_turn;
          if Atomic.get t.flushed < lsn && Atomic.get t.failed = None then begin
            (* An LSN below ours is drawn but not yet published. *)
            let bo = match bo with Some b -> b | None -> Util.Backoff.create () in
            Util.Backoff.once bo;
            await t lsn (Some bo)
          end
          else await t lsn bo
        end
        else begin
          Mutex.lock t.mu;
          while
            Atomic.get t.flushed < lsn && Atomic.get t.failed = None && Atomic.get t.leader
          do
            Condition.wait t.cond t.mu
          done;
          Mutex.unlock t.mu;
          await t lsn bo
        end

let wait_durable t ~lsn = await t lsn None

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

let create ?(next_lsn = 1) cfg store =
  if store.row_len > Record.max_row_len then invalid_arg "Wal.create: row_len > 65535";
  let io = cfg.io in
  io.Wal_io.io_mkdir cfg.dir;
  let seg_seq =
    match segments ~io ~dir:cfg.dir () with
    | [] -> 0
    | segs -> fst (List.hd (List.rev segs)) + 1
  in
  let t =
    {
      cfg;
      store;
      next_lsn = Atomic.make next_lsn;
      marks = Array.init store.num_rows (fun _ -> Atomic.make 0);
      row_lsn = Array.make store.num_rows 0;
      rings = Array.init Util.Tid.max_threads (fun _ -> Ring.create ~capacity:ring_capacity);
      live = Atomic.make 0;
      flushed = Atomic.make (next_lsn - 1);
      failed = Atomic.make None;
      mu = Mutex.create ();
      cond = Condition.create ();
      leader = Atomic.make false;
      heap = Heap.create ();
      batch = Bytes.create 65536;
      batch_len = 0;
      batch_last = next_lsn - 1;
      image = Bytes.empty;
      fd = open_segment io cfg.dir seg_seq;
      seg_seq;
      seg_bytes = 0;
      bytes_since_ckpt = 0;
      stopped = false;
      m_records = Atomic.make 0;
      m_batches = Atomic.make 0;
      m_fsyncs = Atomic.make 0;
      m_bytes = Atomic.make 0;
      m_checkpoints = Atomic.make 0;
      m_ckpt_lsn = Atomic.make 0;
      m_io_retries = Atomic.make 0;
      m_fsync_failures = Atomic.make 0;
    }
  in
  (* The new segment's directory entry must be durable before anything
     is logged into it; a failure propagates to the caller (the log
     never opened). *)
  io.Wal_io.io_fsync_dir cfg.dir;
  t

let checkpoint t =
  (match Atomic.get t.failed with Some r -> raise (Degraded r) | None -> ());
  acquire t;
  lead t do_checkpoint;
  match Atomic.get t.failed with Some r -> raise (Degraded r) | None -> ()

(* [stop]'s leader turn: flush everything published, final fsync, close
   the segment. *)
let shutdown t =
  t.stopped <- true;
  Fun.protect
    ~finally:(fun () -> try t.fd.Wal_io.f_close () with _ -> ())
    (fun () ->
      let bo = Util.Backoff.create () in
      drain_rings t;
      while
        Atomic.get t.failed = None
        && not (t.batch_len = 0 && Heap.is_empty t.heap && rings_empty t)
      do
        if not (flush_batch t) then Util.Backoff.once bo;
        drain_rings t
      done;
      (* A failed final fsync poisons the watermark like any other:
         swallowing it would make [stop] look like a clean shutdown
         (the fsyncgate lie). *)
      if Atomic.get t.failed = None then
        match t.cfg.sync with
        | Sync_fsync ->
            if guarded_fsync t t.fd ~what:"final fsync" then Atomic.incr t.m_fsyncs
        | Sync_none -> ())

let stop t =
  acquire t;
  if t.stopped then release t else lead t shutdown

let metrics t =
  [
    ("records", Atomic.get t.m_records);
    ("batches", Atomic.get t.m_batches);
    ("fsyncs", Atomic.get t.m_fsyncs);
    ("bytes", Atomic.get t.m_bytes);
    ("checkpoints", Atomic.get t.m_checkpoints);
    ("flushed_lsn", Atomic.get t.flushed);
    ("next_lsn", Atomic.get t.next_lsn);
    ("last_checkpoint_lsn", Atomic.get t.m_ckpt_lsn);
    ("io_retries", Atomic.get t.m_io_retries);
    ("io_fsync_failures", Atomic.get t.m_fsync_failures);
    ("degraded", match Atomic.get t.failed with Some _ -> 1 | None -> 0);
  ]
  @ List.map (fun (k, v) -> ("io_" ^ k, v)) (t.cfg.io.Wal_io.io_metrics ())

(* ------------------------------------------------------------------ *)
(* Recovery                                                           *)

type recovery = {
  r_image_lsn : int;  (** end LSN of the checkpoint image, 0 if none *)
  r_max_lsn : int;  (** highest LSN seen in the log *)
  r_next_lsn : int;  (** resume point for [create ~next_lsn] *)
  r_records : int;
  r_replayed : int;  (** row writes applied *)
  r_skipped : int;  (** row writes below the per-row high-water mark *)
  r_torn_tail : bool;
  r_truncated_bytes : int;
  r_suspect_records : int;
  r_tmp_discarded : bool;
  r_segments : int;
}

let truncate_file io path len =
  let fd = io.Wal_io.io_open_rw path in
  Fun.protect
    ~finally:(fun () -> fd.Wal_io.f_close ())
    (fun () ->
      fd.Wal_io.f_truncate len;
      fd.Wal_io.f_fsync ())

(* Structurally valid records found after a damaged region of the final
   segment: under the crash model these are legal (a dropped interior
   sector of an unsynced batch leaves later sectors intact), but they
   are evidence of reordering, so recovery counts them as "suspect" and
   reports a degraded recovery rather than silently losing them. *)
let count_suspect buf ~pos ~len ~after_lsn =
  let n = ref 0 in
  let pos = ref pos and lsn = ref after_lsn in
  let continue = ref true in
  while !continue do
    match Record.find_valid buf ~pos:!pos ~len ~after_lsn:!lsn with
    | None -> continue := false
    | Some p ->
        let q = ref p and run = ref true in
        while !run && !q < len do
          match Record.decode buf ~pos:!q ~avail:(len - !q) with
          | Ok (r, sz) ->
              incr n;
              if r.Record.r_lsn > !lsn then lsn := r.Record.r_lsn;
              q := !q + sz
          | Error _ -> run := false
        done;
        pos := !q + 1;
        if !pos >= len then continue := false
  done;
  !n

let recover ?(io = Wal_io.passthrough) ?(strict = false) ~dir store =
  (* A leftover checkpoint.tmp is an interrupted checkpoint: the rename
     never happened, so it is dead weight — but its presence means the
     shutdown was not clean, which the caller may want to surface. *)
  let tmp_discarded = io.Wal_io.io_exists (image_tmp_path dir) in
  if tmp_discarded then (
    try io.Wal_io.io_unlink (image_tmp_path dir)
    with Wal_io.Io_error _ | Unix.Unix_error _ -> ());
  let applied = Array.make store.num_rows 0 in
  let image_lsn = ref 0 in
  (match Wal_io.read_file io (image_path dir) with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      corruptf "checkpoint image unreadable: %s" (Unix.error_message e)
  | buf ->
      let info = check_image buf in
      if info.i_table_id <> store.table_id then
        corruptf "checkpoint image: table id %d, expected %d" info.i_table_id store.table_id;
      if info.i_num_rows <> store.num_rows || info.i_row_len <> store.row_len then
        corruptf "checkpoint image: geometry %dx%d, expected %dx%d" info.i_num_rows
          info.i_row_len store.num_rows store.row_len;
      for rid = 0 to store.num_rows - 1 do
        let off = image_row_off store rid in
        store.write_row rid (Bytes.sub buf (off + 8) store.row_len);
        applied.(rid) <- get_i64 buf off
      done;
      image_lsn := info.i_end_lsn);
  let segs = segments ~io ~dir () in
  let nsegs = List.length segs in
  let max_lsn = ref (Array.fold_left max !image_lsn applied) in
  let records = ref 0 and replayed = ref 0 and skipped = ref 0 in
  let torn = ref false and truncated = ref 0 and suspect = ref 0 in
  List.iteri
    (fun i (_, path) ->
      let last = i = nsegs - 1 in
      let buf = Wal_io.read_file io path in
      let len = Bytes.length buf in
      let off = ref 0 in
      let continue = ref true in
      while !continue do
        if !off = len then continue := false
        else
          match Record.decode buf ~pos:!off ~avail:(len - !off) with
          | Ok (r, sz) ->
              if r.r_table_id <> store.table_id then
                corruptf "%s+%d: table id %d, expected %d" path !off r.r_table_id
                  store.table_id;
              if r.r_row_len <> store.row_len then
                corruptf "%s+%d: row length %d, expected %d" path !off r.r_row_len
                  store.row_len;
              incr records;
              Array.iter
                (fun (rid, img) ->
                  if rid < 0 || rid >= store.num_rows then
                    corruptf "%s+%d: row id %d out of range" path !off rid;
                  if r.r_lsn > applied.(rid) then begin
                    store.write_row rid img;
                    applied.(rid) <- r.r_lsn;
                    incr replayed
                  end
                  else incr skipped)
                r.r_writes;
              if r.r_lsn > !max_lsn then max_lsn := r.r_lsn;
              off := !off + sz
          | Error reason ->
              if not last then corruptf "%s+%d: %s (interior segment)" path !off reason
              else begin
                (* Damage in the final segment.  A structurally valid
                   record *after* the bad bytes is interior damage; on a
                   log written through a reordering device that is a
                   legal crash state (a dropped sector of the unsynced
                   tail), so by default recovery truncates at the first
                   damage and reports the salvageable-looking remainder
                   as suspect.  [~strict] keeps the process-kill-model
                   reading: valid-after-bad cannot happen when the page
                   cache survives the crash, so refuse as corruption. *)
                match Record.find_valid buf ~pos:(!off + 1) ~len ~after_lsn:!max_lsn with
                | Some p when strict ->
                    corruptf
                      "%s+%d: %s, but a valid record follows at +%d — interior corruption"
                      path !off reason p
                | fv ->
                    (match fv with
                    | Some _ ->
                        suspect := count_suspect buf ~pos:(!off + 1) ~len ~after_lsn:!max_lsn
                    | None -> ());
                    torn := true;
                    truncated := len - !off;
                    truncate_file io path !off;
                    continue := false
              end
      done)
    segs;
  {
    r_image_lsn = !image_lsn;
    r_max_lsn = !max_lsn;
    r_next_lsn = !max_lsn + 1;
    r_records = !records;
    r_replayed = !replayed;
    r_skipped = !skipped;
    r_torn_tail = !torn;
    r_truncated_bytes = !truncated;
    r_suspect_records = !suspect;
    r_tmp_discarded = tmp_discarded;
    r_segments = nsegs;
  }
