(** Waiting-loop pacing.

    The paper's [pause()] is an x86 PAUSE executed while spinning until the
    lock holder finishes.  {!once} spins with [Domain.cpu_relax] until the
    wait has lasted one spin budget, then sleeps in short, capped
    [nanosleep]s so a waiter whose holder is descheduled gives the CPU
    back.

    The budget is what one minimal sleep really costs on the running
    host, not what it asks for: Linux rounds every [nanosleep] up by the
    thread's timer slack (50 µs by default), so [Unix.sleepf 1e-6] takes
    56-65 µs on a 2-vCPU KVM guest.  Spinning no longer than a sleep costs is the classic
    competitive bound: a wait burns at most twice the CPU of sleeping at
    once, and a holder that releases within the budget is noticed within
    one [cpu_relax] instead of one sleep. *)

type t

val create : unit -> t
(** Fresh pacing state, one per waiting loop. *)

val once : t -> unit
(** One wait step; call inside the loop body exactly where the paper's
    pseudocode says [pause()].  Until the spin budget has elapsed since
    the state's first [once], a step is one [Domain.cpu_relax]; after
    that every step sleeps, 1 µs longer each time up to 20 µs requested.

    The budget is the median wall time of 5 [Unix.sleepf 1e-6] calls,
    capped at 1 ms, measured by the first wait of the process that
    outlasts one step.  It is a measurement, never an option. *)

val exponential : attempt:int -> unit
(** Capped exponential backoff used by the no-wait concurrency controls
    between aborted attempts ([attempt] = 1, 2, ...).  This is the backoff
    strategy §2.1 contrasts with 2PLSF's wait-for-conflictor. *)
