(* Each counter array is striped through Twoplsf_obs.Padded: one
   cache-line-wide slot per thread id, written only by its owner with a
   plain store.  The previous [int Atomic.t array] representation boxed
   every counter, so neighbouring threads' counters could land on the same
   cache line and false-share; the flat padded stripes also make the
   layout identical to the telemetry subsystem's counters. *)

module Padded = Twoplsf_obs.Padded

type t = { commits : Padded.t; aborts : Padded.t; clock : Padded.t }

let create () =
  { commits = Padded.create (); aborts = Padded.create (); clock = Padded.create () }

let[@inline] commit t ~tid = Padded.incr t.commits ~tid
let[@inline] abort t ~tid = Padded.incr t.aborts ~tid
let clock_op t ~tid = Padded.incr t.clock ~tid
let commits t = Padded.sum t.commits
let aborts t = Padded.sum t.aborts
let clock_ops t = Padded.sum t.clock

let reset t =
  Padded.reset t.commits;
  Padded.reset t.aborts;
  Padded.reset t.clock
