(** The one retry loop of the baseline STMs (DESIGN.md §11.2).

    TL2, TinySTM, TicToc-STM, OREC-Z, the no-wait family (TLRW, 2PL-RW,
    2PL-RW-Dist), 2PL-WaitDie and 2PL-WoundWait all run their
    transactions through {!Make}.  The loop owns what they share: the
    per-transaction counters and overload state ({!t}), commit/abort
    {!Stm_intf.Stats}, the telemetry scope's commit/abort/retry records,
    the native inter-attempt wait timed into {!Twoplsf_obs.Phase.Backoff},
    {!Twoplsf_cm.Cm.after_abort} with {!Twoplsf_cm.Cm.Fallback}
    escalation, exception cleanup and the admission gate.  Each STM
    supplies only its {!PROTOCOL}.

    2PLSF and its write-back variants keep their own loops: they escalate
    through the zero-mutex, not [Cm.Fallback]. *)

exception Restart
(** Abort the current attempt and retry.  Raised by an STM's reads,
    writes and {!PROTOCOL.commit}; [atomic] always catches it. *)

type t = {
  tid : int;
  mutable depth : int;  (** 1 inside a top-level attempt, else 0 *)
  mutable restarts : int;  (** aborts of the current transaction *)
  mutable finished_restarts : int;  (** of the last committed one *)
  mutable escalated : bool;  (** {!Twoplsf_cm.Cm.Fallback} held *)
  mutable reason : Twoplsf_obs.Events.abort_reason;
  mutable aborter : int;  (** tid the abort is pinned on, or -1 *)
  mutable lock : int;  (** lock or orec it is pinned on, or -1 *)
  mutable commit_t0 : int;  (** telemetry: start of the commit phase *)
  ov : Twoplsf_cm.Cm.state;
}
(** Per-thread loop state, embedded in each STM's transaction descriptor.
    [reason], [aborter] and [lock] describe the in-flight abort; the loop
    resets them to [User_restart], -1, -1 before every attempt. *)

val make : tid:int -> t

val restart :
  t -> Twoplsf_obs.Events.abort_reason -> aborter:int -> lock:int -> 'a
(** Record why the attempt aborts, then raise {!Restart}. *)

module type PROTOCOL = sig
  type tx

  val name : string
  val obs : Twoplsf_obs.Scope.t
  val stats : Stm_intf.Stats.t

  val get_tx : unit -> tx
  (** The calling thread's descriptor. *)

  val loop : tx -> t

  val begin_attempt : tx -> read_only:bool -> unit
  (** Clear the attempt's logs and take its snapshot or timestamp. *)

  val commit : tx -> unit
  (** Validate, publish and release.  May raise {!Restart}. *)

  val rollback : tx -> unit
  (** After {!Restart} or any other exception from the body or
      {!commit}: undo in-place writes and release every lock the attempt
      holds, commit-time ones included. *)

  val native_wait : tx -> attempt:int -> unit
  (** The STM's own wait before retrying attempt [attempt + 1], on the
      normal and on the escalated path. *)

  val retire : tx -> unit
  (** Withdraw the transaction's priority announcement: before a typed
      exception escapes ({!Twoplsf_cm.Cm.after_abort}'s [cleanup]) and
      after {!rollback} on any other exception. *)

  val set_deadline : tx -> int -> unit
  (** Mirror the absolute deadline (0 = none) into the lock layer and
      clear its deadline-hit flag: at transaction start, on each retry
      and on escalation. *)
end

module Backoff_hooks : sig
  val native_wait : 'tx -> attempt:int -> unit
  val retire : 'tx -> unit
  val set_deadline : 'tx -> int -> unit
end
(** The hooks of an STM that never waits for a lock: capped exponential
    backoff between attempts, no priority to retire, no deadline to
    mirror. *)

module Make (P : PROTOCOL) : sig
  val atomic : ?read_only:bool -> (P.tx -> 'a) -> 'a
  val commits : unit -> int
  val aborts : unit -> int
  val reset_stats : unit -> unit
  val last_restarts : unit -> int
end
