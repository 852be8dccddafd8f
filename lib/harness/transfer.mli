(** The conserved-transfer workload and its audit, shared by the STM
    soaks, the schedule explorer's scenario and the robustness tests.
    Transfers move balance between accounts, so the total never changes;
    the audit checks it and sweeps the lock table at quiescence. *)

type audit = {
  total : int;  (** sum of every account, read in one transaction *)
  expected : int;  (** accounts x initial balance *)
  leaked : int;  (** the STM's post-run lock sweep *)
}

val conserved : audit -> bool
val audit_ok : audit -> bool
(** Conserved and no lock leaked. *)

module Make (S : Stm_intf.STM) : sig
  type t = { accounts : int S.tvar array; initial : int }

  val create : n:int -> initial:int -> t

  val transfer : t -> Util.Sprng.t -> a:int -> b:int -> amt:int -> unit
  (** One draw from the generator picks a read-only pair of reads (one
      time in eight) or a transfer of [amt] from [a] to [b] (no writes
      when [a = b]).  Exceptions from [S.atomic] propagate. *)

  val audit : t -> audit
  (** At quiescence: with chaos injection paused (a large read-only sum
      under injection may never commit), sum the accounts and sweep
      [S.leaked_locks]. *)
end
