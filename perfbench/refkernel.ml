(* The reference kernel: a fixed, allocation-free mix of work that uses no
   repository code.  Timing it between slices of a workload gives the
   host's current speed, which the benchmark divides out of every time
   metric (see README.md, "Host speed").

   On a shared virtual machine the host slows different kinds of work by
   different amounts: a neighbour on the sibling hyperthread or the
   memory bus hurts cache- and bandwidth-bound code far more than a
   register-bound loop.  The kernel therefore mixes, in roughly equal
   time, the three kinds of work the workloads do: a dependent integer
   chain (the core), a random pointer chase over an L2-sized array (the
   cache) and sequential stores over a 2 MiB buffer (the memory path, as
   the GC's minor heap uses it). *)

open Bigarray

let chain_iterations = 2_000_000
let chase_steps = 400_000
let chase_words = 1 lsl 16
let stream_words = 1 lsl 18
let stream_passes = 20

(* Reference speed of each part, in its own units per second (chain
   iterations, chase steps, stored words), and the fixed reference rate a
   host running every part at exactly those speeds is said to have.
   Fixed for the life of the benchmark: changing them rescales every
   normalised figure. *)
let part_names = [| "chain"; "chase"; "stream" |]
let ref_parts = [| 3.1e8; 7.7e7; 7.0e8 |]
let ref_rate = 1e9

(* A workload's host rate: the reference rate times the product of the
   parts' relative speeds, each raised to the workload's weight for it.
   The weights' sum is the workload's elasticity: when every part runs x
   times as fast, the host rate moves by x to that power.  A sum below
   1 leaves a share of the workload's time at reference speed (a modelled
   device flush); a sum above 1 fits a workload that host slowdowns hit
   harder than any single part (allocation-bound hash-churn). *)
let combine ~mix parts =
  let s = ref 1. in
  Array.iteri (fun k w -> s := !s *. ((parts.(k) /. ref_parts.(k)) ** w)) mix;
  ref_rate *. !s

let chain n =
  let x = ref 0x2545F4914F6CDD1D in
  for i = 1 to n do
    x := ((!x lxor (!x lsr 29)) * 0x5851F42D4C957F2D) + i
  done;
  !x

(* One random cycle through the array, fixed for every run. *)
let chase_ring =
  let a = Array1.create int c_layout chase_words in
  let rng = Util.Sprng.create 0x5EED in
  let perm = Array.init chase_words Fun.id in
  for i = chase_words - 1 downto 1 do
    let j = Util.Sprng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Array.iteri (fun i p -> a.{p} <- perm.((i + 1) mod chase_words)) perm;
  a

let chase n =
  let x = ref 0 in
  for _ = 1 to n do
    x := Array1.unsafe_get chase_ring !x
  done;
  !x

(* Each worker streams into its own buffer. *)
let stream_buf =
  Domain.DLS.new_key (fun () -> Array1.create int c_layout stream_words)

let stream passes =
  let b = Domain.DLS.get stream_buf in
  for p = 1 to passes do
    for i = 0 to stream_words - 1 do
      Array1.unsafe_set b i (i + p)
    done
  done;
  Array1.unsafe_get b 0

let timed f n =
  let t0 = Util.Clock.now_ns () in
  ignore (Sys.opaque_identity (f n));
  let t1 = Util.Clock.now_ns () in
  float n *. 1e9 /. float (max 1 (t1 - t0))

(* Run one slice; returns each part's speed in its units per second. *)
let slice () =
  ignore (Domain.DLS.get stream_buf);
  [|
    timed chain chain_iterations;
    timed chase chase_steps;
    timed stream stream_passes *. float stream_words;
  |]
