(** The three classic 2PL variants shipped with DBx1000 (Figure 11):
    NO_WAIT, WAIT_DIE and DL_DETECT, over per-row shared/exclusive locks
    (the paper runs them over pthread mutexes; here each row lock is a
    tiny spinlock-guarded owner table).

    - NO_WAIT aborts on any conflict and retries immediately (the paper
      disables the restart backoff).
    - WAIT_DIE stamps every transaction from a global clock at begin (kept
      across restarts); on conflict, an older requester waits, a younger
      one dies.
    - DL_DETECT waits on conflict, recording edges in a waits-for graph;
      the requester aborts itself when its wait would close a cycle. *)

type variant = No_wait | Wait_die | Dl_detect

val variant_name : variant -> string

module Make (V : sig
  val variant : variant
end) : Cc_intf.CC
