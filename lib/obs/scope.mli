(** A telemetry scope: counters, histograms, latency-phase accumulators
    and trace-name ids for one concurrency control instance.

    Scopes register themselves in a global registry at creation so the
    harness can find them by the STM's [name] and the JSON dump can
    iterate all of them.  Counters live in a *current window* that the
    owning STM's [reset_stats] clears (folding the window into a
    cumulative view first), so per-benchmark abort-reason sums equal the
    benchmark's [aborts ()].

    Phase accounting (DESIGN.md §12): lock waits feed their phase and a
    per-thread per-attempt scratch; {!txn_commit}/{!txn_abort} take the
    scratch and attribute the remainder of the attempt to [Body] (and,
    when the caller timed it, [Commit]).  Between attempts, conflictor
    waits and backoff sleeps feed their phases and {!retry_start} charges
    the rest of the gap to [Backoff], so the partition tiles the whole
    transaction.  {!Phase.Wasted_retry} re-counts whole aborted attempts
    and overlaps the partition. *)

type t

val create : string -> t
(** Create and register a scope.  The name must be unique (it is the
    registry key and the trace-event name prefix). *)

val name : t -> string

val all : unit -> t list
(** Every scope created so far, in creation order. *)

val find : string -> t option

val conflict : t -> Conflict.t
(** The scope's conflict-cartography instance (DESIGN.md §13).  Created
    with the scope; recording into it is gated on [!Conflict.on] and
    happens inside {!lock_wait} (when the call site attributes a lock)
    and {!txn_abort}.  Not cleared by {!reset} — see {!Conflict.reset}. *)

(** {2 Recording} — call sites must check [!Telemetry.on] first. *)

val event : t -> tid:int -> Events.event -> unit
val abort : t -> tid:int -> Events.abort_reason -> unit

val phase_add : t -> tid:int -> Phase.t -> int -> unit
(** Add [ns] to a phase accumulator (non-positive values are dropped).
    Lock waits, attempt ends and conflictor waits feed their phases
    automatically; this is for externally-timed phases —
    contention-management backoff sleeps ({!Phase.Backoff}) and the
    baselines' native inter-attempt waits. *)

val lock_wait :
  t -> lock:int -> tid:int -> write:bool -> t0_ns:int -> spins:int ->
  acquired:bool -> unit
(** One completed lock-wait slow path: records the wait duration and spin
    count histograms, the waited-lock counter (when [acquired]), the
    read/write wait phase and the per-attempt wait scratch and, when
    tracing, a lock-wait span starting at [t0_ns].  When [lock >= 0] and
    conflict cartography is on, also attributes the wait to that lock in
    the scope's {!Conflict} sketch (-1 = unattributed). *)

val txn_commit :
  t -> tid:int -> txn_t0_ns:int -> att_t0_ns:int -> ?commit_t0_ns:int ->
  unit -> unit
(** Whole-transaction latency ([txn_t0_ns] = first attempt's start) plus
    phase attribution for the winning attempt: [commit_t0_ns .. now] is
    the [Commit] phase (when given), the rest of the attempt minus its
    lock waits is [Body].  When tracing, also a commit span covering the
    final attempt. *)

val txn_abort :
  t -> ?aborter:int -> ?lock:int -> tid:int -> att_t0_ns:int ->
  Events.abort_reason -> unit
(** One aborted attempt: abort-reason counter, [Body] phase for the
    attempt minus its lock waits, the whole attempt re-counted into
    {!Phase.Wasted_retry} and, when tracing, an abort span.  When
    conflict cartography is on, additionally records one provenance edge
    (victim = [tid], [aborter] tid or -1 = unknown, [lock] id or -1)
    charging the attempt's duration to [lock] — so per-victim edge totals
    always reconcile with the abort taxonomy.  Also marks the start of
    the gap before the next attempt (see {!retry_start}). *)

val retry_start : t -> tid:int -> int
(** The start time of a retry after {!txn_abort}: returns now and charges
    the gap since the abort, less the conflictor waits and backoff sleeps
    recorded in it, to {!Phase.Backoff}.  Use the result as the next
    attempt's [att_t0_ns]. *)

val conflictor_wait : t -> tid:int -> t0_ns:int -> unit
(** One post-abort wait-for-conflictor episode (event, phase, span). *)

val fsync_wait : t -> tid:int -> t0_ns:int -> unit
(** One completed WAL durability wait ({!Phase.Fsync_wait}).  Also feeds
    the per-attempt wait scratch, so call it only for waits that happen
    inside the attempt window (before {!txn_commit}); the Body phase
    then excludes the wait by subtraction, exactly like lock waits. *)

(** {2 Reading} *)

val abort_counts : t -> (string * int) list
(** Current window, every reason in taxonomy order (zeros included). *)

val event_counts : t -> (string * int) list

val phase_counts : t -> (string * int) list
(** Current window, every phase in {!Phase.all} order (ns). *)

val txn_total_ns : t -> int
(** Exact sum of whole-transaction durations in the current window — the
    denominator the partition phases are measured against. *)

val aborts_total : t -> int

val aborts_of_tid : t -> tid:int -> int
(** Current-window abort count of one thread, summed over the taxonomy —
    what the conflict matrix's {!Conflict.row_total} for that victim must
    equal when no reset intervened. *)

val conflict_gauges : unit -> (string * int) list
(** Monitor gauge provider: for every scope with conflict data, the
    hottest lock id, its percent share of attributed ns and the edge
    total.  Install with
    [Monitor.add_gauges ~name:"conflict" Scope.conflict_gauges]. *)

val cumulative_abort_counts : t -> (string * int) list
(** Window plus everything folded in by earlier {!reset}s. *)

val cumulative_event_counts : t -> (string * int) list
val cumulative_phase_counts : t -> (string * int) list
val cumulative_txn_total_ns : t -> int

val hist_lock_wait : t -> int array
(** Cumulative lock-wait-duration buckets (ns), {!Histogram.num_buckets}
    entries. *)

val hist_spins : t -> int array
val hist_txn : t -> int array

val window_hist_lock_wait : t -> int array
(** Current-window lock-wait buckets (for per-benchmark percentiles). *)

val window_hist_txn : t -> int array

val reset : t -> unit
(** Fold the current window into the cumulative view and clear it.  Call
    only while writers are quiescent (the owning STM's [reset_stats]). *)

val reset_all : unit -> unit
