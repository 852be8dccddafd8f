(** SPSC ring of encoded commit records: worker (producer, inside its
    commit window) → the WAL's current flush leader (consumer; one
    domain at a time, handed over through the leader flag).  Plain cell
    fields published/retired through atomic [tail]/[head] stores, per
    the OCaml memory model. *)

type t

val create : capacity:int -> t
(** Capacity is rounded up to a power of two. *)

val capacity : t -> int

val try_push : t -> lsn:int -> Bytes.t -> bool
(** Producer: publish one record, or return [false] without publishing
    when the ring is full. *)

val pop : t -> (int * Bytes.t) option
(** Consumer: take the head record. *)

val is_empty : t -> bool
