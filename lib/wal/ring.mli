(** SPSC ring of encoded commit records: worker (producer, inside its
    commit window) → the WAL's current flush leader (consumer; one
    domain at a time, handed over through the leader flag).  Each slot
    owns a reusable byte buffer the record is encoded into in place;
    slots are published/retired through atomic [tail]/[head] stores,
    per the OCaml memory model. *)

type t

val create : capacity:int -> t
(** Capacity is rounded up to a power of two.  Slot buffers start empty
    and are grown by {!reserve}. *)

val capacity : t -> int

(** {2 Producer} *)

val is_full : t -> bool

val reserve : t -> len:int -> Bytes.t
(** The next free slot's buffer, at least [len] bytes long; encode the
    record at offset 0, then {!publish}.  The ring must not be full.  On
    an empty ring it is the buffer of the previous record, so a producer
    that waits for each record to be consumed reuses one buffer. *)

val publish : t -> lsn:int -> len:int -> unit
(** Publish the first [len] bytes of the {!reserve}d buffer as the
    record with [lsn]. *)

(** {2 Consumer} *)

val peek : t -> int
(** LSN of the oldest unconsumed record, or [-1] when the ring is
    empty. *)

val head_buf : t -> Bytes.t
val head_len : t -> int
(** The oldest record is the first [head_len] bytes of [head_buf]; valid
    until {!drop}.  Only after a {!peek} that found a record. *)

val drop : t -> unit
(** Retire the oldest record, freeing its slot for the producer. *)

val is_empty : t -> bool
