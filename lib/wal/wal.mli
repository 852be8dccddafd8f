(** Per-table write-ahead redo log: group commit, fuzzy checkpoints,
    crash recovery (DESIGN.md §15), storage-fault tolerance (§16).

    Workers append CRC-sealed, LSN-stamped commit records from inside
    the 2PLSF commit window (all write-locks held, so LSN order agrees
    with per-row serialization order) to per-worker rings.  There is no
    log thread: a committer in {!wait_durable} that finds no flush in
    progress becomes the leader, merges the rings and flushes the
    contiguous LSN prefix itself (one write, one fsync), while
    concurrent committers wait and are acknowledged by that same fsync
    (leader/follower group commit).  [flushed_lsn >= my_lsn] is
    therefore a sound durability acknowledgement: nothing with a
    smaller LSN can be missing from the log.

    Durability contract: a transaction is durable iff {!wait_durable}
    returned for its LSN.  Transactions still buffered at a crash were
    never acknowledged and may be lost — never partially applied.

    Failure contract: every byte moves through the {!Wal_io.t} given at
    {!config} time.  Transient errors are retried with capped backoff;
    a permanent error or {e any} fsync failure (fsyncgate: the unflushed
    pages may be gone, retrying would lie) poisons the log — the
    durability watermark freezes, {!wait_durable}, {!log_commit} and
    {!checkpoint} raise {!Degraded}, and no unsynced commit is ever
    acknowledged.  Reads are unaffected; the engine above is expected
    to degrade to read-only service. *)

type sync_mode =
  | Sync_fsync  (** fsync every batch: the durability ack means disk *)
  | Sync_none  (** no fsync (tests / measuring the logging overhead alone) *)

type config = {
  dir : string;
  sync : sync_mode;
  ckpt_every_bytes : int;  (** auto-checkpoint threshold; 0 = manual only *)
  io : Wal_io.t;  (** the storage stack; {!Wal_io.passthrough} by default *)
}

val config :
  ?sync:sync_mode ->
  ?ckpt_every_bytes:int ->
  ?io:Wal_io.t ->
  dir:string ->
  unit ->
  config

val ring_capacity : int
(** Records one worker's ring holds before {!log_commit} has to drain
    the rings itself. *)

(** How the WAL reads and writes the table it protects.  [read_row]
    returns the live backing bytes of a row (no copy); [write_row]
    overwrites a row (recovery only). *)
type store = {
  table_id : int;
  num_rows : int;
  row_len : int;
  read_row : int -> Bytes.t;
  write_row : int -> Bytes.t -> unit;
}

type t

exception Degraded of string
(** The log device has failed permanently (or an fsync failed, which is
    treated the same).  Raised by {!log_commit}, {!wait_durable} and
    {!checkpoint}; the payload is the first failure's description.
    {!log_commit} raises it {e before} drawing an LSN or touching any
    mark, so the caller can roll back and abort the transaction with a
    typed read-only reason. *)

val create : ?next_lsn:int -> config -> store -> t
(** Open the log directory (creating it if needed) and start a fresh
    segment.  No thread or domain is started: all log I/O runs on the
    callers of {!wait_durable}, {!checkpoint} and {!stop}.  After a recovery, pass
    [~next_lsn:(r.r_next_lsn)] so LSNs keep ascending.  Raises
    {!Wal_io.Io_error} / [Unix.Unix_error] if the device refuses the
    initial open — the log never starts. *)

val stop : t -> unit
(** Flush everything published, final fsync, close the segment — on the
    calling thread, after any flush in progress ends.  Call after all
    workers have finished (a drawn-but-unpublished LSN would stall the
    drain).  Never raises on a poisoned log: the failure is already
    recorded in {!degraded} / {!metrics}.  A second call does nothing;
    {!wait_durable} on an unflushed LSN and {!checkpoint} raise
    [Invalid_argument] once the log is stopped. *)

val degraded : t -> string option
(** [Some reason] once the log is poisoned.  Monotone: never returns to
    [None]. *)

(** {2 Commit-window API — caller holds the row's write lock} *)

val mark_dirty : t -> rid:int -> unit
(** Open the row's seqlock window (before the first in-place write).
    Idempotent within a transaction. *)

val mark_undo : t -> rid:int -> unit
(** Close the window after a rollback has restored the pre-image.
    Idempotent; must run {e after} the undo blit. *)

val log_commit : t -> tid:int -> n:int -> rid:(int -> int) -> int
(** Draw the commit LSN, stamp every written row ([rid 0..n-1]) with
    it, seal the redo record (full after-images read through the
    store) in place in a slot of worker [tid]'s ring, and publish it.
    Returns the LSN.  Allocates nothing once the slot's buffer has
    grown to the record's size.  Must run while all the transaction's
    write locks are held: the fetch-and-add under the locks is what
    aligns LSN order with the serialization order.  Never does I/O: if
    the ring is full, the caller first moves the rings into the flush
    batch itself (waiting for a flush in progress to let go of them),
    before it draws the LSN.
    @raise Degraded on a poisoned log, before any mutation. *)

val wait_durable : t -> lsn:int -> unit
(** Block until the record with [lsn] (and every record below it) is
    flushed.  If no flush is in progress, the caller runs it: it writes
    and fsyncs every record published so far that extends the flushed
    prefix, and then runs the automatic checkpoint if
    [ckpt_every_bytes] is due — so one call in a few returns only after
    a whole checkpoint.  Otherwise it waits for the running flush and
    retries.  Call {e after} releasing locks — holding locks across an
    fsync would serialize the whole commit pipeline.
    @raise Degraded if the log is poisoned before [lsn] became durable
    (returns normally if [lsn] was already flushed — durability
    established before the failure still stands). *)

val flushed_lsn : t -> int

val checkpoint : t -> unit
(** Run a fuzzy checkpoint on the calling thread, once any flush in
    progress ends: flush, rotate the segment, seqlock-copy every row
    with its committed LSN, atomically install the image, delete the
    old segments.  Concurrent commits are not blocked, but their
    durability acks are held back until it finishes (no other flush
    runs meanwhile).  Must not be called after {!stop}.
    @raise Degraded if the log is (or becomes) poisoned. *)

val metrics : t -> (string * int) list
(** Monotone counters and gauges for the [twoplsf_wal_*] OpenMetrics
    families: records, batches, fsyncs, bytes, checkpoints,
    flushed_lsn, next_lsn, last_checkpoint_lsn, io_retries,
    io_fsync_failures, degraded — plus every counter the configured
    {!Wal_io.t} reports, prefixed [io_] (the [twoplsf_wal_io_*]
    families). *)

(** {2 Recovery} *)

exception Corrupt of string
(** Raised (by {!recover} and the image readers) on damage that cannot
    be a legal crash state: checksum or geometry violations in the
    checkpoint image, a bad record in a non-final segment — or, under
    [~strict:true], a bad record in the final segment with valid
    records after it. *)

type recovery = {
  r_image_lsn : int;  (** end LSN of the checkpoint image, 0 if none *)
  r_max_lsn : int;  (** highest LSN seen in the log *)
  r_next_lsn : int;  (** resume point for [create ~next_lsn] *)
  r_records : int;
  r_replayed : int;  (** row writes applied *)
  r_skipped : int;  (** row writes at or below the per-row high-water mark *)
  r_torn_tail : bool;
  r_truncated_bytes : int;
  r_suspect_records : int;
      (** structurally valid records found {e after} the first damage in
          the final segment and discarded by the truncation — evidence
          of sector reordering in the unsynced tail (0 under a pure
          tear).  None of them were ever acknowledged (the contiguous
          prefix ends at the damage), so dropping them is safe; a
          nonzero count still marks the recovery as degraded. *)
  r_tmp_discarded : bool;
      (** a leftover [checkpoint.tmp] (interrupted checkpoint) was
          discarded *)
  r_segments : int;
}

val recover : ?io:Wal_io.t -> ?strict:bool -> dir:string -> store -> recovery
(** Rebuild the table: load the checkpoint image (CRC-validated) as the
    base and per-row replay high-water marks, then replay every segment
    in order, applying a row write iff its LSN exceeds the row's mark —
    replay is idempotent, so recovering twice equals recovering once.

    Damage in the {e final} segment truncates the file at the last good
    record and recovery succeeds; valid records found beyond the damage
    are counted in [r_suspect_records] (legal under sector reordering
    of the unsynced tail, since nothing past the contiguous flushed
    prefix was ever acknowledged).  With [~strict:true] — appropriate
    when the log was written on a device whose page cache survived the
    crash, e.g. a process kill — valid-after-damage raises {!Corrupt}
    instead.  Damage anywhere else always raises {!Corrupt}.  An
    interrupted checkpoint ([checkpoint.tmp]) is discarded and flagged. *)

(** {2 Introspection (walinspect)} *)

val segments : ?io:Wal_io.t -> dir:string -> unit -> (int * string) list
(** Segment files in the directory, [(sequence, path)], ascending. *)

type image_info = {
  i_table_id : int;
  i_num_rows : int;
  i_row_len : int;
  i_start_lsn : int;
  i_end_lsn : int;
}

val read_image_info : ?io:Wal_io.t -> dir:string -> unit -> image_info option
(** Validate the checkpoint image (magic, version, geometry, CRC) and
    return its header; [None] if no image exists.
    @raise Corrupt on a damaged image. *)
