(** TicToc [Yu et al., SIGMOD 2016]: time-traveling optimistic concurrency
    control — the strongest baseline in Figure 11.

    Each tuple carries a packed (lock, wts, delta) word; reads are
    optimistic, writes are buffered, and commit computes a per-transaction
    commit timestamp from the accessed tuples' write/read timestamps,
    extending read leases where possible.  Serializable but not opaque —
    the property trade-off §3.5 discusses. *)

include Cc_intf.CC

val read_copy : t -> int -> Bytes.t
(** [read_copy t key] runs a read-only transaction that reads [key]'s row
    and returns a copy of the payload bytes it validated.
    @raise Not_found for a key outside the table. *)
