(** Seeded fault injection (DESIGN.md §10) and the sync-point substrate
    for deterministic schedule exploration (DESIGN.md §14).

    A per-thread, deterministic chaos layer: lock/STM/harness code is
    instrumented with sync points ({!point}, {!spurious}, {!inject_exn})
    that — with configured probabilities — inject bounded delays, OS
    yields, spurious lock acquisition failures, user-visible exceptions,
    and multi-millisecond victim stalls (preemption emulation, the
    delay-at-arbitrary-points adversary of "Lock-Free Locks Revisited").

    The same sync points double as the context-switch vocabulary of the
    cooperative scheduler in [lib/sched]: when {!hook} is installed,
    every sync point first offers the scheduler a chance to park the
    calling thread and run another.

    Disabled cost is one load and a predicted branch: every call site is
    written [if !Chaos.on then Chaos.point S] — the same discipline as
    [Obs.Telemetry.on].

    Determinism: every fault decision is a stateless hash of
    [(seed, tid, site, step)] where [step] counts the calling thread's
    visits to that site since {!enable}.  A decision never depends on
    what happened at {e other} sites, so replaying a truncated or shrunk
    schedule perturbs fault decisions only at sites whose visit counts
    changed — the property that makes chaos-active replays bit-stable. *)

(** Stable sync-point identities.  Codes are the wire format of schedule
    traces ([test/schedules/*.json]) — append new sites at the end and
    never renumber. *)
module Site : sig
  type t =
    | Read_lock_arrive  (** before a reader sets its read-indicator bit *)
    | Read_lock_check  (** between arrive and the write-lock check *)
    | Read_lock_wait  (** each read-lock wait-loop iteration *)
    | Write_lock_acquire  (** entry to the write-lock slow path *)
    | Write_lock_wait  (** each write-lock wait-loop iteration *)
    | Clock_announce  (** between conflict-clock draw and announcement *)
    | Conflictor_wait  (** each wait-for-conflictor iteration *)
    | Pre_commit  (** after the body, before commit processing *)
    | Mid_rollback  (** between undo-log restore and lock release *)
    | Mid_writeback  (** redo-log install, all write locks held *)
    | Txn_body  (** inside a transaction body (user-code faults) *)
    | Dbx_txn  (** DBx runner, between transactions *)
    | Harness_op  (** harness driver, between operations *)
    | Orec_check
        (** ownership-record/value-consistency windows in optimistic
            read paths (TL2, TinySTM, TicToc): between the orec pre-load
            and the value fetch, and between the fetch and the re-check *)
    | Orec_lock
        (** immediately before an orec lock CAS (the check-then-lock
            TOCTOU window of encounter-time and commit-time locking) *)
    | Validate
        (** each read-set validation / snapshot-extension step, and each
            iteration of TicToc's bounded [stable_word] wait loop *)
    | Wound_check
        (** wound-wait acquire-loop iterations, immediately before the
            am-I-wounded check *)
    | Wal_append
        (** inside the WAL commit record build/publish, LSN drawn but
            record possibly not yet visible to the flush leader *)
    | Wal_fsync
        (** the flush leader (a committing worker), immediately before
            fsync *)
    | Wal_checkpoint
        (** the checkpointing leader, at checkpoint start and between
            image write and the atomic rename (a kill there leaves only
            the old checkpoint) *)
    | Commit_durable_pre
        (** commit window: write-locks held, before the WAL append *)
    | Commit_durable_mid
        (** commit window: WAL record published, locks not yet
            released *)
    | Commit_durable_post
        (** locks released, before the durability wait completes *)

  val code : t -> int
  (** Stable wire code, [0..count-1].  Never renumbered. *)

  val name : t -> string
  (** Stable kebab-case name, e.g. ["read-lock-wait"]. *)

  val of_code : int -> t
  (** Inverse of {!code}.  @raise Invalid_argument on unknown codes. *)

  val all : t list
  (** Every site, in code order. *)

  val count : int
end

type site = Site.t =
  | Read_lock_arrive
  | Read_lock_check
  | Read_lock_wait
  | Write_lock_acquire
  | Write_lock_wait
  | Clock_announce
  | Conflictor_wait
  | Pre_commit
  | Mid_rollback
  | Mid_writeback
  | Txn_body
  | Dbx_txn
  | Harness_op
  | Orec_check
  | Orec_lock
  | Validate
  | Wound_check
  | Wal_append
  | Wal_fsync
  | Wal_checkpoint
  | Commit_durable_pre
  | Commit_durable_mid
  | Commit_durable_post
(** Re-export so instrumentation sites keep writing
    [Chaos.point Chaos.Pre_commit] without opening {!Site}. *)

val site_code : site -> int
val site_name : site -> string

exception Injected_fault of site
(** The stand-in for an arbitrary user exception escaping a transaction
    body.  Raised only by {!inject_exn}. *)

type config = {
  seed : int;  (** base seed; every draw hashes [(seed, tid, site, step)] *)
  delay_ppm : int;  (** P(bounded spin delay) per point, in ppm *)
  delay_max_spins : int;  (** delay length is 1..this many relax spins *)
  yield_ppm : int;  (** P(OS yield) per point *)
  spurious_ppm : int;  (** P(forced acquisition failure) per {!spurious} *)
  exn_ppm : int;  (** P(raise {!Injected_fault}) per {!inject_exn} *)
  stall_ppm : int;  (** P(victim stall) per point *)
  stall_ms : float;  (** stall length (sleep, so the OS deschedules us) *)
  victim : int;  (** only this tid stalls; [-1] = any thread *)
}

val default : config
(** Seed 0xC4A05; all fault classes enabled at moderate rates (see
    DESIGN.md §10 for the values) — the configuration the bench soak and
    CI chaos-smoke run. *)

val quiet : config
(** {!default} with every fault class at probability zero.  Sync points
    still fire (and still drive the scheduler {!hook}) but never delay,
    yield, fail, or raise — the configuration deterministic exploration
    runs under unless faults are explicitly layered on. *)

val on : bool ref
(** The single global on/off flag.  Flip via {!enable}/{!disable};
    instrumentation sites read it raw. *)

val enable : ?config:config -> unit -> unit
(** Turn injection on.  Zeroes every per-(tid, site) step counter,
    clears counters and traces.  Not meant to be toggled while worker
    domains are mid-transaction. *)

val disable : unit -> unit

val enabled : unit -> bool
val config : unit -> config
val seed : unit -> int

val hook : (Site.t -> unit) option ref
(** Cooperative-scheduler hook.  When [Some f], every {!point},
    {!spurious}, and {!inject_exn} calls [f site] {e first} — before the
    fault draw — giving a central scheduler the chance to park the
    calling thread and schedule another.  The hook must not raise: it
    runs inside critical sections (rollback, write-back) where an
    exception would corrupt protocol state.  Install/clear only from
    [lib/sched] between worker cohorts. *)

val point : site -> unit
(** Sync-point hook: may delay, yield, or stall the calling thread.
    Never raises and never alters control flow — safe to place inside
    critical sections (rollback, write-back) where an exception would
    corrupt protocol state. *)

val spurious : site -> bool
(** Should this lock acquisition spuriously fail?  Call sites translate
    [true] into their normal conflict path (return false / raise the
    protocol's restart), so the injection exercises exactly the abort
    machinery a real conflict would. *)

val inject_exn : site -> unit
(** Raise {!Injected_fault} with probability [exn_ppm].  Only called
    from transaction *bodies* (and other user-code positions) — never
    while protocol-internal invariants are suspended. *)

(** {2 Process-abort injection (crash–recovery testing)} *)

val kill_exit_code : int
(** 137, i.e. 128+SIGKILL — what a crash-soak parent looks for. *)

val arm_kill : site:site -> after:int -> unit
(** Arm a one-shot process abort: the [after]-th process-wide arrival at
    [site] calls [Unix._exit kill_exit_code] — no at_exit handlers, no
    buffer flush, no domain teardown; the closest portable stand-in for
    SIGKILL mid-commit.  Fires even when the armed site's fault rates
    are zero; checked before the scheduler hook and the fault draw.
    Arm before starting the workload, not concurrently with it.
    @raise Invalid_argument if [after < 1]. *)

val disarm_kill : unit -> unit

(** {2 Introspection} *)

val counts : unit -> (string * int) list
(** Injected-fault totals since {!enable}/{!reset_counts}, by class:
    [("delays", _); ("yields", _); ("stalls", _); ("spurious", _);
    ("exns", _)]. *)

val reset_counts : unit -> unit

val set_trace : int -> unit
(** Record the first [n] decisions of every thread (packed site/class
    codes).  For reproducibility tests; off by default. *)

val trace : unit -> int list
(** The calling thread's recorded decisions, oldest first. *)

val clear_trace : unit -> unit
