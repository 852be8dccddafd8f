(** The DBx1000-style row store used by the Figure 11 YCSB reproduction.

    Fixed set of rows with 100-byte tuples, addressed through a sequential
    open-addressing hash index.  As in the paper's §3.5 setup, the index is
    *not* protected by the concurrency control: the benchmark only updates
    pre-inserted records, so the index is immutable during measurement. *)

type t

val tuple_size : int
(** 100 bytes, as in the paper. *)

val create : num_rows:int -> t
(** Build and prefill [num_rows] rows keyed 0 .. num_rows-1. *)

val num_rows : t -> int

val lookup : t -> int -> int
(** Row id for a key (the sequential hash-index probe).
    @raise Not_found for keys outside the prefilled range. *)

val resolve : t -> int array -> int array -> unit
(** [resolve t keys rids] stores [lookup t keys.(i)] into [rids.(i)] for
    every [i], with one plain load from each cache line of each row's
    tuple, the values discarded: the row half of a concurrency control's
    resolve pass, which warms a transaction's rows before it takes any
    lock.  Takes no lock, writes nothing but [rids] and allocates
    nothing.  [rids] must be at least as long as [keys].
    @raise Not_found as {!lookup}, with [rids] partly written. *)

val payload : t -> int -> Bytes.t
(** The mutable 100-byte tuple of a row id.  Concurrency control is the
    caller's job. *)

val balance : t -> int -> int
(** Bytes 0..7 of the tuple as a signed 64-bit little-endian balance —
    the conserved quantity of the crash-soak transfer workload. *)

val set_balance : t -> int -> int -> unit
