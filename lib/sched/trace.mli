(** Schedule traces: the serialized form of an explored interleaving
    (DESIGN.md §14.3).

    A trace pairs a fully-parameterized workload description with the
    decision sequence the scheduler took, so a failure found by
    exploration can be re-run bit-for-bit by
    [bench/main.exe --scenario explore --replay FILE] or the
    [test/schedules/] regression corpus.  Decisions are keyed by
    {e worker slot} (the worker's index in its cohort), not by raw
    thread id, which makes traces portable across processes. *)

type scenario = {
  stm : string;  (** registry name, e.g. "2PLSF", "TinySTM" *)
  threads : int;  (** worker count (= slots 0..threads-1) *)
  accounts : int;  (** tvar count of the transfer workload *)
  txns_per_thread : int;
  init_balance : int;  (** per-account starting balance *)
  abort_every : int;
      (** every k-th transaction raises a user abort after its first
          write (exercises rollback paths); 0 = never *)
  audit_every : int;
      (** every k-th transaction is a read-only two-account audit
          (gives the checker dirty-read observations); 0 = never *)
  wseed : int;  (** workload op-stream seed *)
  bug : string option;  (** [Baselines.Tinystm] seeded-bug variant *)
}

val default_scenario : scenario
(** The shape shared by the explore smoke and the bug search: 2 threads,
    4 accounts, 6 transactions per thread, a user abort every 3rd and an
    audit every 4th transaction, 2PLSF, workload seed 1. *)

type t = {
  version : int;
  strategy : string;  (** provenance: how the schedule was found *)
  failure : string option;
      (** {!Scenario.failure_class} recorded when the trace was saved
          (classes are stable across runs; rendered messages are not) *)
  scenario : scenario;
  decisions : (int * int) array;  (** (worker slot, {!Chaos.Site.code}) *)
}

val version : int
(** Current trace format version. *)

val to_json : t -> Harness.Json.t
val of_json : Harness.Json.t -> t
(** @raise Failure on malformed or wrong-version input. *)

val save : string -> t -> unit
val load : string -> t
(** @raise Failure on malformed input;
    [Harness.Json.Parse_error] on unparsable JSON. *)
