(** Latency-decomposition phases (DESIGN.md §12).

    The {!partition} phases tile a transaction's wall-clock life; their
    sums per scope approximate the scope's total transaction nanoseconds.
    {!Wasted_retry} overlaps the partition — it re-counts the whole
    duration of every aborted attempt — and is reported as a ratio, never
    summed with the rest. *)

type t =
  | Body  (** attempt work outside lock waits and the commit step *)
  | Read_lock_wait  (** read-lock slow-path wait loops *)
  | Write_lock_wait  (** write-lock slow-path wait loops *)
  | Conflictor_wait  (** post-abort wait for the conflicting transaction *)
  | Backoff
      (** contention management between attempts: backoff sleeps and
          the rest of the gap that a conflictor wait does not cover *)
  | Commit  (** commit step of the winning attempt *)
  | Wasted_retry  (** full duration of attempts that aborted (overlaps) *)
  | Fsync_wait  (** post-release wait for the WAL group-commit ack *)

val num_phases : int
val index : t -> int
val label : t -> string
val all : t list

val partition : t list
(** The non-overlapping phases, in reporting order ([all] minus
    [Wasted_retry]). *)
