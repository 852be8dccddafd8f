(** Write-through undo log of tuple pre-images, shared by the lock-based
    concurrency controls ({!Cc_2plsf}, {!Cc_2pl}) so both pay the same
    data-access costs.

    One log per thread, reused across attempts.  Pre-images are copied
    into one byte arena of [Ycsb.accesses_per_txn * Table.tuple_size]
    bytes that doubles when a longer transaction needs it, so saving an
    image allocates nothing in the steady state. *)

type t

val create : unit -> t
val clear : t -> unit
val length : t -> int
val is_empty : t -> bool

val rid : t -> int -> int
(** [rid u i] is the row of the [i]-th saved image (push order).  The
    partial application [rid u] allocates nothing: it returns a closure
    built with the log, ready for [Wal.log_commit ~rid]. *)

val save : t -> Table.t -> int -> unit
(** [save u table rid] copies the row's current tuple (call before the
    in-place write).  A row written twice is saved twice. *)

val restore : t -> Table.t -> unit
(** Blit every saved image back, newest first, so a row written twice
    ends at its oldest image. *)
