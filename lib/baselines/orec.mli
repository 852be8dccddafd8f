(** Ownership-record (versioned-lock) table shared by the optimistic
    baselines (TL2, TinySTM/LSA, OREC-lazy).

    Each orec word is either a version number (even encoding) or a lock
    holding the owner's thread id (odd encoding).  Tvar ids hash onto orecs
    exactly as data addresses hash onto locks in the paper. *)

type t

val create : num_orecs:int -> t
(** [num_orecs] must be a power of two. *)

val index : t -> int -> int
(** Orec index for a tvar id. *)

val get : t -> int -> int
(** Raw word; decode with the predicates below. *)

val is_locked : int -> bool
val owner : int -> int
(** Owner tid of a locked word (meaningless on unlocked words). *)

val holder : int -> int
(** Owner tid of a locked word, -1 on an unlocked one: the aborter an
    abort on this word is pinned on. *)

val version : int -> int
(** Version of an unlocked word (meaningless on locked words). *)

val try_lock : t -> tid:int -> int -> int option
(** CAS the orec from unlocked to locked-by-[tid]; [Some old_version] on
    success, [None] if it was (or became) locked. *)

val unlock_to : t -> int -> version:int -> unit
(** Store an unlocked word carrying [version]. *)

val restore : t -> (int * int) Util.Vec.t -> unit
(** Unlock every orec of a transaction's (orec, pre-lock version) log back
    to its pre-lock version, newest first, then clear the log. *)

val pre_lock_version : (int * int) Util.Vec.t -> int -> int option
(** The version orec [oi] had when this transaction locked it, looked up
    in its (orec, pre-lock version) log; [None] if it did not lock it.
    Linear scan: write sets are small. *)

val size : t -> int
(** Number of orecs in the table. *)

val locked_count : t -> int
(** How many orecs are currently in the locked encoding — the post-run
    leak sweep of the chaos harness (racy; meaningful in quiescence). *)
