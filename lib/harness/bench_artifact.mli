(** The schema-versioned BENCH benchmark artifact, a JSON file (DESIGN.md
    §12).

    {!Report.row} records every figure data row here (and the overload /
    latency runners record theirs); given [--bench-out FILE], the bench
    CLI calls {!write} once at exit.  [bin/conflictmap.exe] renders the
    result.  Rows carry throughput, commit/abort/clock
    counters and — when telemetry was on — p50/p99/p999 transaction
    latency, the abort taxonomy, the phase decomposition with its
    coverage ratio (partition-sum / txn_total_ns) and the wasted-retry
    fraction. *)

val schema_version : int

val reset : unit -> unit

val record_row : figure:string -> Driver.row -> unit

val record_latency :
  figure:string ->
  stm:string ->
  threads:int ->
  throughput:float ->
  p50_ms:float ->
  p90_ms:float ->
  p99_ms:float ->
  max_ms:float ->
  unit

val record_overload :
  stm:string ->
  ops:int ->
  starved:int ->
  deadline_raises:int ->
  fallbacks:int ->
  leaked:int ->
  sum_ok:bool ->
  p50_ms:float ->
  p99_ms:float ->
  p999_ms:float ->
  unit

val record_wal : (string * int) list -> unit
(** Record the durability counters for the "wal" section (schema v3):
    crash-soak cycle/kill/torn-tail/replay summary or a live run's
    {!Twoplsf_wal.Wal.metrics}-style counters.  Replaces any previous
    recording; the section is omitted from the artifact when nothing
    was recorded. *)

val commit_id : unit -> string
(** Best-effort git HEAD commit of the checkout in the working directory:
    the loose ref HEAD names, else its entry in [.git/packed-refs]
    ("unknown" outside a checkout). *)

val write : path:string -> flags:string -> unit
(** Write the artifact (schema version, commit, [flags] = the CLI
    invocation, host facts, and everything recorded since {!reset}). *)
