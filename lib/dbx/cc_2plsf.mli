(** 2PLSF applied to database records (§3.5): the paper's concurrency
    control at row granularity, using the same starvation-free
    reader-writer lock table as the STM, with a write-through undo log of
    tuple images. *)

include Cc_intf.CC
(** [leaked_locks] is {!Twoplsf.Rwl_sf.leaked}. *)

(** {2 Durability (DESIGN.md §15)} *)

val set_wal : t -> Twoplsf_wal.Wal.t option -> unit
(** Attach a write-ahead log: commits draw an LSN and publish redo
    records inside the commit window (write-locks held), then wait for
    the group-commit ack after releasing.  [None] detaches (in-memory
    mode, the default).  Set while no transactions are in flight. *)

val wal : t -> Twoplsf_wal.Wal.t option

(** {2 Read-only degradation (DESIGN.md §16)}

    When the attached WAL's device fails permanently, the engine flips
    into typed read-only mode: write transactions (and transfers) raise
    [Stm_intf.Degraded_read_only] — after a full rollback when the
    failure surfaced mid-commit — while read-only transactions keep
    serving from the in-memory table.  The flip is one-way for the
    engine's lifetime; service resumes by recovering into a fresh
    engine on a healthy device. *)

val degraded_reason : t -> string option
(** [Some reason] once the engine is read-only. *)

val readonly_rejects : t -> int
(** Write transactions refused (or failed over) since degradation. *)

val wal_store : Table.t -> Twoplsf_wal.Wal.store
(** The table viewed as a WAL store (live payload bytes, no copies) —
    pass to [Wal.create] / [Wal.recover]. *)

val execute_transfer : t -> tid:int -> src:int -> dst:int -> amount:int -> int
(** Run a conserved-transfer transaction (move [amount] between the
    balances of rows keyed [src] and [dst]) to commit; returns the
    aborted-attempt count.  The crash-soak workload: the sum of all
    balances is invariant under any serial order, so it must survive
    recovery exactly. *)
