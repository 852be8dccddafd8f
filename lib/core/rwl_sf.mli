(** The starvation-free scalable reader-writer lock of the paper
    (Algorithms 2 and 3).

    A table of [num_locks] reader-writer locks sharing one distributed
    {!Read_indicator}, one conflict clock and one timestamp-announcement
    array.  Lock acquisition uses the [tryOrWaitLock] API (§2.3): it may
    wait, returns [true] on acquisition, and returns [false] — telling the
    caller to restart its transaction — only when a transaction with a
    lower timestamp (higher priority) holds or awaits the lock.

    Timestamp convention: announced value 0 is [NO_TIMESTAMP] and compares
    as +infinity — a transaction that never met a conflict has the lowest
    priority, so conflicted (timestamped) transactions never restart
    because of it; they wait for it instead.  (The paper's pseudocode
    leaves this case implicit; see DESIGN.md.)  Timestamp 1 is reserved as
    the irrevocable priority (§2.8): the conflict clock starts at 2. *)

type t

type ctx = {
  tid : int;  (** dense thread id of the owner *)
  rs : Rwlock.Read_indicator.read_set;
      (** the read locks this ctx holds, as the indices of its indicator
          words that may be non-zero; managed by this module (see
          {!read_unlock_all}). *)
  mutable my_ts : int;
      (** this transaction's timestamp; 0 until the first conflict *)
  mutable o_tid : int;  (** thread that caused the last conflict, or -1 *)
  mutable o_ts : int;
      (** the conflicting thread's announced timestamp at detection time *)
  mutable o_lock : int;
      (** lock index the last conflict (or deadline abandonment) was
          detected on, or -1 — the abort-provenance attribution target
          for conflict cartography (DESIGN.md §13).  Valid until the next
          conflict detection; cleared with the announcement. *)
  mutable preempted : bool;
      (** telemetry detail of the last failed acquisition: [true] when a
          write lock this thread already *held* was taken away by a
          higher-priority transaction (the starvation-freedom mechanism
          firing), [false] for a plain failed acquisition.  Valid until
          the next [try_or_wait_*] call. *)
  mutable deadline_ns : int;
      (** absolute deadline ({!Twoplsf_obs.Telemetry.now_ns} clock) after
          which the wait loops abandon the acquisition; 0 = no deadline.
          Installed by the STM at attempt start (DESIGN.md §11). *)
  mutable deadline_hit : bool;
      (** [true] when the last failed acquisition was abandoned because
          [deadline_ns] expired rather than because of a higher-priority
          conflictor.  Valid until the next [try_or_wait_*] call; the STM
          resets it when translating it into a [Deadline] abort. *)
}
(** Per-transaction conflict state — the paper's thread-locals [tl_myTS],
    [tl_otid], [tl_oTS].  Owned by one thread, embedded in its STM
    transaction descriptor. *)

val create : ?num_locks:int -> unit -> t
(** Build a lock table.  [num_locks] (default 65536) must be a power of two
    and a multiple of 32. *)

val make_ctx : tid:int -> ctx
(** The ctx of thread [tid].  Use one ctx per (table, tid) pair: the read
    set relies on no other ctx touching the tid's indicator words. *)

val num_locks : t -> int

val set_obs : t -> Twoplsf_obs.Scope.t -> unit
(** Attach a telemetry scope: when {!Twoplsf_obs.Telemetry.on} is set, the
    lock paths record fast/waited outcomes, wait-duration and
    spin-iteration histograms, priority announcements and (when tracing)
    lock-wait spans into it.  Call once at start-up, before worker domains
    touch the table; with no scope attached instrumentation is skipped.
    When wait-registry publication ({!Twoplsf_obs.Wait_registry.on}) is
    already enabled, also registers the table for watchdog introspection
    under the scope's name (see {!watch}). *)

val watch : ?name:string -> t -> unit
(** Register this table with {!Twoplsf_obs.Waitsfor} so the watchdog can
    inspect its locks; the slow paths then publish their waits into the
    {!Twoplsf_obs.Wait_registry} whenever publication is on.  Idempotent.
    [name] defaults to the attached scope's name.  Registered tables are
    retained for the process lifetime — the watchdog holds their
    introspection closures. *)

val inspect : t -> int -> Twoplsf_obs.Waitsfor.lock_view
(** Racy read-only view of lock [w]: current write holder (with its
    announced timestamp) and read-indicator population.  The fields may
    belong to slightly different instants; sound for the watchdog's
    debounced detection, never for synchronization decisions. *)

val clock_value : t -> int
(** Current conflict-clock value (racy read; for the watchdog and tests). *)

val lock_index : t -> int -> int
(** Hash a tvar id onto a lock index ([addr2lockIdx]). *)

val try_or_wait_read_lock : t -> ctx -> int -> bool
(** Acquire the read side of lock [w] (Algorithm 2, lines 51–69).  [false]
    means: a lower-timestamp writer owns the lock; the caller must restart
    ([ctx.o_tid]/[ctx.o_ts] identify whom to wait for before retrying).

    Re-entrant: if the ctx already holds [w] for reading or writing, the
    result is [true] with no store, no sync point, no telemetry event and
    no wait, whoever holds or awaits the write word.  Callers therefore
    call it directly on every read, with no {!holds_read}/{!holds_write}
    probe first.  A ctx that holds [w] only for writing may have its read
    bit set by the call; {!read_unlock_all} releases it.

    With chaos and telemetry off, one load of the ctx's indicator word
    decides "already held" and feeds the arrive, and the write word is
    loaded only after a fresh arrive.  With either on, the call probes
    for a held lock first and keeps the chaos sync points and the
    [Read_lock_fast] event of the original order. *)

val try_or_wait_write_lock : t -> ctx -> int -> bool
(** Acquire the write side of lock [w] (lines 76–106), upgrading a read
    lock held by this thread if any.  Re-entrant: returns [true]
    immediately if this thread already holds the write lock (callers must
    not double-log the lock for release).  [false] as for reads. *)

val read_unlock : t -> ctx -> int -> unit
(** Release the read side of one lock (clear this thread's indicator bit).
    The lock's word stays in the read set. *)

val read_unlock_all : t -> ctx -> unit
(** Release every read lock the ctx holds — store 0 into each word of its
    read set [rs] — and empty the read set: one store per touched word
    rather than one per lock.  Commit and abort call this once, after
    releasing their write locks.

    Invariant: outside the window in which {!try_or_wait_write_lock}
    arrives as a reader while it waits, every non-zero indicator word of
    a (table, tid) pair is in the read set of that pair's ctx.  It holds
    because
    - a table has exactly one ctx per tid, and only that ctx sets the
      tid's bits;
    - {!try_or_wait_read_lock} records a word it finds zero before it sets
      a bit in it;
    - the writer's arrive-as-reader departs again before
      {!try_or_wait_write_lock} returns, restoring the word;
    - an upgrade's depart, like an early {!read_unlock}, can only make a
      recorded word zero early, and clearing a zero word again is
      idempotent. *)

val write_unlock : t -> ctx -> int -> unit
(** Release the write side (store UNLOCKED). *)

val holds_read : t -> ctx -> int -> bool
val holds_write : t -> ctx -> int -> bool
(** Whether the ctx holds [w] for reading / writing.  One load each; for
    tests and the write path ({!try_or_wait_read_lock} needs no probe). *)

val take_timestamp : t -> ctx -> unit
(** Draw a timestamp from the conflict clock and announce it, if the
    transaction does not have one yet.  Called internally on first
    conflict; exposed for the wait-or-die ablation and tests. *)

val announce_priority : t -> ctx -> int -> unit
(** Force-announce a specific timestamp (used by irrevocable transactions,
    which announce the reserved priority 1). *)

val clear_announcement : t -> ctx -> unit
(** Commit-time epilogue: forget the timestamp and conflictor and clear the
    announcement slot (lines 31–32), releasing any transaction waiting on
    it.  The slot is left alone when the ctx holds no timestamp: it is
    then already 0, and not storing spares the cache line other threads'
    slots share. *)

val wait_for_conflictor : t -> ctx -> unit
(** Before re-attempting a restarted transaction, wait until the
    transaction that caused the conflict has committed (line 26: spin while
    its announcement still equals the timestamp we observed).  Bounded by
    [ctx.deadline_ns] when a deadline is installed. *)

val deadline_blown : ctx -> bool
(** Whether [ctx.deadline_ns] is set and in the past.  One load plus a
    predicted branch when no deadline is installed. *)

val announced : t -> int -> int
(** Raw announced timestamp of a thread (0 = none); for tests. *)

val zero_mutex_lock : t -> unit
(** The §2.8 "zero mutex": serializes irrevocable write transactions. *)

val zero_mutex_unlock : t -> unit

val leaked : t -> int
(** Post-run lock sweep: how many locks are still held — non-zero write
    words plus locks whose read indicator has any bit set (scanned to the
    tid high-water mark).  Zero once every transaction has committed or
    aborted; the chaos harness asserts this after each soak.  Racy, so
    only meaningful in quiescence. *)

val clock_increments : t -> int
(** How many timestamps have been drawn from the conflict clock (= central
    clock increments): in 2PLSF this happens only on conflicts, which is
    the paper's §3.3 scalability argument against per-transaction clocks. *)

val reset_clock_increments : t -> unit
