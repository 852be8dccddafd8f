(* Per-thread counters padded to cache-line granularity.

   One flat [int array] with [stride] = 8 words (64 bytes) per thread:
   thread [tid] owns slot [tid * stride] and the 7 dead words after it, so
   two threads never bounce the same cache line.  Because each slot is
   written only by its owning thread, increments are plain (non-atomic)
   loads and stores — cheaper than an [Atomic.t] RMW and race-free for
   writes.  Cross-thread reads ([sum], [get]) are racy but memory-safe
   (word-sized ints cannot tear in OCaml); they are exact once the writer
   domains have been joined, which is when benchmarks read them. *)

let stride = 8

type t = int array

let create () = Array.make (Util.Tid.max_threads * stride) 0

let[@inline] incr t ~tid =
  let i = tid * stride in
  t.(i) <- t.(i) + 1

let add t ~tid n =
  let i = tid * stride in
  t.(i) <- t.(i) + n

let get t ~tid = t.(tid * stride)

let sum t =
  let acc = ref 0 in
  for tid = 0 to Util.Tid.max_threads - 1 do
    acc := !acc + t.(tid * stride)
  done;
  !acc

let reset t = Array.fill t 0 (Array.length t) 0
