(* The benchmark's own statistics: a log-linear latency histogram, order
   statistics over small float samples, host-speed scaling and span
   self time.  Pure code, tested on fixed inputs in test_pstats.ml. *)

open Bigarray

(* ---- Latency histogram -------------------------------------------- *)

(* Values below [2 * sub] get one bucket each; above that every power of
   two is split into [sub] equal buckets, so a bucket is at most 1/1024
   of its lower bound wide.  The buckets live outside the OCaml heap so
   that the GC's heap figures describe the program, not the benchmark. *)
let sub_bits = 10
let sub = 1 lsl sub_bits
let max_exp = 52
let num_buckets = (max_exp + 2) * sub

type hist = { counts : (int, int_elt, c_layout) Array1.t; mutable n : int }

let hist_create () =
  let counts = Array1.create int c_layout num_buckets in
  Array1.fill counts 0;
  { counts; n = 0 }

let hist_clear h =
  Array1.fill h.counts 0;
  h.n <- 0

let bit_length v =
  let rec go v n = if v = 0 then n else go (v lsr 1) (n + 1) in
  go v 0

let bucket_of v =
  if v < 2 * sub then max v 0
  else
    let e = min (bit_length v - 1 - sub_bits) max_exp in
    ((e + 1) * sub) + min (v lsr e) ((2 * sub) - 1) - sub

(* Lower bound and width of a bucket. *)
let bucket_range i =
  if i < 2 * sub then (i, 1)
  else
    let e = (i / sub) - 1 in
    let m = (i mod sub) + sub in
    (m lsl e, 1 lsl e)

let hist_add h v =
  let i = bucket_of v in
  Array1.unsafe_set h.counts i (Array1.unsafe_get h.counts i + 1);
  h.n <- h.n + 1

let hist_merge ~into h =
  for i = 0 to num_buckets - 1 do
    let c = Array1.unsafe_get h.counts i in
    if c <> 0 then Array1.unsafe_set into.counts i (Array1.unsafe_get into.counts i + c)
  done;
  into.n <- into.n + h.n

(* Nearest-rank percentile, interpolated inside the bucket that holds the
   rank (its samples are taken as spread evenly from its lower bound), so
   a one-value bucket reports its value exactly. *)
let hist_percentile h p =
  if h.n = 0 then 0.
  else begin
    let rank = max 1 (min h.n (int_of_float (Float.ceil (p /. 100. *. float h.n)))) in
    let i = ref 0 and below = ref 0 in
    while !below + Array1.unsafe_get h.counts !i < rank do
      below := !below + Array1.unsafe_get h.counts !i;
      incr i
    done;
    let lo, width = bucket_range !i in
    let c = Array1.unsafe_get h.counts !i in
    float lo +. (float width *. float (rank - !below - 1) /. float c)
  end

(* Samples at or above [v]: how many observations lie beyond a value. *)
let hist_count_above h v =
  let from = bucket_of v in
  let acc = ref 0 in
  for i = from to num_buckets - 1 do
    acc := !acc + Array1.unsafe_get h.counts i
  done;
  !acc

(* ---- Order statistics over float samples ------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Python's [statistics.quantiles] with its default 'exclusive' method,
   step for step (including its extrapolation at the clamped ends). *)
let quantiles ?(n = 4) xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Pstats.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float (n - delta)) +. (a.(j) *. float delta)) /. float n)

let median xs =
  let a = sorted xs in
  let m = Array.length a in
  if m = 0 then nan
  else if m land 1 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

(* ---- Host-speed scaling ------------------------------------------- *)

(* A host running the reference kernel at [rate] iterations/s is
   [rate / ref_rate] times as fast as the reference host: durations shrink
   by that factor and rates grow by it.  Scaling a measurement by the
   inverse brings it back to the reference host. *)
let speed ~rate ~ref_rate = rate /. ref_rate
let scale_time ~rate ~ref_rate t = t *. speed ~rate ~ref_rate
let scale_rate ~rate ~ref_rate x = x /. speed ~rate ~ref_rate

(* ---- Span self time ----------------------------------------------- *)

type child = { c_start : int; c_stop : int; c_busy : int }
(* A child span; [c_busy] is the time it accounts for inside
   [c_start, c_stop] — the interval length for an ordinary span, the sum
   of its members for an aggregate (all reads of one attempt). *)

let span start stop = { c_start = start; c_stop = stop; c_busy = stop - start }

(* A parent's self time: its duration minus the part of it its children
   cover.  A child reaching outside the parent counts only its overlap;
   children must not overlap one another. *)
let self_ns ~start ~stop children =
  List.fold_left
    (fun acc c ->
      let overlap = max 0 (min stop c.c_stop - max start c.c_start) in
      acc - min c.c_busy overlap)
    (stop - start) children
