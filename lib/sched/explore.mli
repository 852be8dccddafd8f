(** Schedule-space search (DESIGN.md §14.5): run seeded PCT schedules
    over a {!Scenario} until a violation appears, then shrink the
    failing schedule and package it as a replayable {!Trace.t}. *)

type params = {
  scenario : Trace.scenario;
  iters : int;  (** max iterations (seeds) to try *)
  depth : int;  (** PCT priority-change points *)
  seed : int;  (** base seed; iteration i uses a hash of (seed, i) *)
  max_steps : int;  (** per-run scheduler step budget *)
  max_shrink_trials : int;
}

val default_params : params
(** 200 iterations, depth 3, seed 1 over {!Trace.default_scenario}. *)

type found = {
  iteration : int;
  strategy : string;  (** provenance label, also stored in the trace *)
  failure : Scenario.failure;
  trace : Trace.t;  (** shrunk, replayable witness *)
  original_len : int;  (** decision count before shrinking *)
  shrink : Shrink.stats;
}

type result = { found : found option; iterations : int; total_decisions : int }

val search : ?log:(string -> unit) -> params -> result
(** Run the search.  Stops at the first violation.  Iteration 0 is a
    round-robin probe that calibrates the change-point horizon to the
    workload's actual schedule length; every later iteration is PCT. *)

type verdict =
  | Clean  (** no failure recorded, none on replay *)
  | Reproduced of Scenario.failure
      (** the recorded failure class failed again *)
  | Nondeterministic of int * int
      (** the two replays' history hashes differ *)
  | Mismatch of { recorded : string option; observed : string option }
      (** the replayed failure class is not the recorded one *)

val replay : Trace.t -> verdict
(** Replay a trace twice with its fixed decisions, compare the history
    hashes, then compare the failure class with the recording. *)

val verdict_to_string : verdict -> string
