(** Row-level concurrency-control interface for the YCSB benchmark.

    Each concurrency control runs a generated transaction to commit,
    retrying internally on aborts exactly as the paper configures DBx1000:
    no abort buffer and no restart backoff (2PLSF waits for its specific
    conflictor; wait-die waits by timestamp order; no-wait retries
    immediately). *)

module type CC = sig
  val name : string

  type t

  val create : Table.t -> t

  type worker

  val workers : t -> worker Per_worker.t
  (** Per-worker contexts, each built by its worker's first [execute]. *)

  val execute : t -> tid:int -> Ycsb.txn -> int
  (** Run the transaction to commit; returns the number of aborted attempts
      it took (0 = first try).
      @raise Not_found for a key outside the table, before any lock is
      taken. *)

  val leaked_locks : t -> int
  (** Rows still locked; zero in quiescence. *)
end

(* The per-access "work" every CC performs on a tuple, shared so all
   concurrency controls pay identical data-access costs. *)

let[@inline] read_work payload =
  let acc = ref 0 in
  for i = 0 to 7 do
    acc := !acc + Char.code (Bytes.get payload i)
  done;
  !acc

let[@inline] write_work payload =
  for i = 0 to 7 do
    Bytes.set payload i (Char.chr ((Char.code (Bytes.get payload i) + 1) land 0xFF))
  done
