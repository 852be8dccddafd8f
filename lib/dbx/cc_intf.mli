(** Row-level concurrency-control interface for the YCSB benchmark.

    Each concurrency control runs a generated transaction to commit,
    retrying internally on aborts exactly as the paper configures
    DBx1000: no abort buffer and no restart backoff (2PLSF waits for its
    specific conflictor; wait-die waits by timestamp order; no-wait
    retries immediately). *)

module type CC = sig
  val name : string

  type t

  val create : Table.t -> t

  type worker
  (** A worker's private transaction context. *)

  val workers : t -> worker Per_worker.t
  (** The engine's worker contexts.  [create] builds none; each is
      built by its worker's first [execute], in that worker's domain. *)

  val execute : t -> tid:int -> Ycsb.txn -> int
  (** Run the transaction to commit; returns the number of aborted
      attempts it took (0 = first try).
      @raise Not_found for a key outside the table, from the resolve pass
      that runs before the first attempt: no lock is taken and no row
      is written. *)

  val leaked_locks : t -> int
  (** Post-run lock sweep: rows still locked.  Zero once every
      transaction has committed, aborted or raised; only meaningful in
      quiescence. *)
end

(** {2 Shared per-access tuple work}

    Every CC performs the same reads and writes on a tuple so that all
    concurrency controls pay identical data-access costs. *)

val read_work : Bytes.t -> int
(** Sum bytes 0..7 of the tuple. *)

val write_work : Bytes.t -> unit
(** Increment bytes 0..7 of the tuple (mod 256), the update every write
    op applies — tests use the per-row equality of those bytes to check
    update atomicity. *)
