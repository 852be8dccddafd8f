(* Single-producer/single-consumer ring of encoded commit records,
   one per worker thread (DESIGN.md §15).  The producer is the worker
   inside its commit window; the consumer is whichever domain holds the
   WAL's leader flag.  Only one domain holds it at a time, and the
   flag's CAS and releasing store order one consumer's accesses before
   the next one's, so the ring still sees a single consumer.

   Each slot owns a byte buffer the producer encodes its record into
   and the consumer copies out of; buffers are reused and only grow (to
   the largest record they held), so a steady stream of commits
   allocates nothing.

   Publication protocol: the producer fills the slot's buffer and plain
   fields, then releases them with an atomic store of [tail].  The
   consumer acquires [tail] before touching any slot, so the OCaml
   memory model orders the plain accesses (the atomic store/load pair
   establishes happens-before).  [head] is symmetric in the other
   direction: the consumer bumps it after it has copied the record out,
   which is what licenses the producer to overwrite the slot. *)

type t = {
  lsns : int array;
  lens : int array;
  bufs : Bytes.t array;
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
    lsns = Array.make cap 0;
    lens = Array.make cap 0;
    bufs = Array.make cap Bytes.empty;
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let capacity t = t.mask + 1

(* Producer side.  Never waits: nothing drains the ring in the
   background, so the caller decides what to do when it is full. *)

let is_full t = Atomic.get t.head + t.mask + 1 <= Atomic.get t.tail

let reserve t ~len =
  let tail = Atomic.get t.tail in
  let i = tail land t.mask in
  (* On an empty ring every earlier record has been copied out, so the
     last one's buffer, the one most likely still in cache, moves to
     this slot: a worker that waits for each commit encodes every record
     into the same buffer. *)
  if tail > 0 && Atomic.get t.head = tail then begin
    let j = (tail - 1) land t.mask in
    let b = t.bufs.(j) in
    t.bufs.(j) <- t.bufs.(i);
    t.bufs.(i) <- b
  end;
  let b = t.bufs.(i) in
  if Bytes.length b >= len then b
  else begin
    let b = Bytes.create (max len (2 * Bytes.length b)) in
    t.bufs.(i) <- b;
    b
  end

let publish t ~lsn ~len =
  let tail = Atomic.get t.tail in
  let i = tail land t.mask in
  t.lsns.(i) <- lsn;
  t.lens.(i) <- len;
  Atomic.set t.tail (tail + 1)

(* Consumer side. *)

let peek t =
  let head = Atomic.get t.head in
  if Atomic.get t.tail = head then -1 else t.lsns.(head land t.mask)

let head_len t = t.lens.(Atomic.get t.head land t.mask)
let head_buf t = t.bufs.(Atomic.get t.head land t.mask)
let drop t = Atomic.incr t.head
let is_empty t = Atomic.get t.tail = Atomic.get t.head
