(** Aligned-table output for the figure reproductions; every data row is
    also recorded in {!Bench_artifact}. *)

val figure_header : id:string -> title:string -> unit
(** Print a banner naming the paper figure being regenerated. *)

val row_header : unit -> unit
val row : Driver.row -> unit

val phase_breakdown : Driver.txn_telemetry -> string
(** One-line latency decomposition ("body=61.2% commit=8.4% ...") as
    percentages of the transaction wall-clock total; [""] when the
    summary is empty (telemetry off). *)

val latency_header : unit -> unit

val latency_row :
  stm:string ->
  threads:int ->
  throughput:float ->
  p50:float ->
  p90:float ->
  p99:float ->
  max:float ->
  unit

val write_telemetry_json : path:string -> unit
(** Dump every telemetry scope (lifetime abort-reason and event counters
    plus the three log histograms) as one JSON object.  Meaningful only
    when telemetry was enabled for the run. *)
