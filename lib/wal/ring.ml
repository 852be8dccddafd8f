(* Single-producer/single-consumer ring of encoded commit records,
   one per worker thread (DESIGN.md §15).  The producer is the worker
   inside its commit window; the consumer is whichever domain holds the
   WAL's leader flag.  Only one domain holds it at a time, and the
   flag's CAS and releasing store order one consumer's accesses before
   the next one's, so the ring still sees a single consumer.

   Publication protocol: the producer fills the cell's plain fields,
   then releases them with an atomic store of [tail].  The consumer
   acquires [tail] before touching any cell, so the OCaml memory model
   orders the plain accesses (the atomic store/load pair establishes
   happens-before).  [head] is symmetric in the other direction: the
   consumer bumps it after it has taken the cell's buffer, which is
   what licenses the producer to reuse the slot. *)

type cell = { mutable c_lsn : int; mutable c_buf : Bytes.t }

type t = {
  cells : cell array;
  mask : int;
  head : int Atomic.t;  (* next slot the consumer reads *)
  tail : int Atomic.t;  (* next slot the producer writes *)
}

let create ~capacity =
  let cap =
    let rec pow2 p = if p >= capacity then p else pow2 (p * 2) in
    pow2 1
  in
  {
    cells = Array.init cap (fun _ -> { c_lsn = 0; c_buf = Bytes.empty });
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let capacity t = t.mask + 1

(* Producer side.  Never waits: nothing drains the ring in the
   background, so the caller decides what to do when it is full. *)
let try_push t ~lsn buf =
  let tail = Atomic.get t.tail in
  if Atomic.get t.head + t.mask + 1 <= tail then false
  else begin
    let c = t.cells.(tail land t.mask) in
    c.c_lsn <- lsn;
    c.c_buf <- buf;
    Atomic.set t.tail (tail + 1);
    true
  end

(* Consumer side. *)

let pop t =
  let head = Atomic.get t.head in
  if Atomic.get t.tail = head then None
  else begin
    let c = t.cells.(head land t.mask) in
    let lsn = c.c_lsn and buf = c.c_buf in
    c.c_buf <- Bytes.empty;
    Atomic.set t.head (head + 1);
    Some (lsn, buf)
  end

let is_empty t = Atomic.get t.tail = Atomic.get t.head
