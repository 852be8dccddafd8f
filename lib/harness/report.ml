let current_figure = ref ""

let figure_header ~id ~title =
  current_figure := id;
  Printf.printf "\n=== %s: %s ===\n%!" id title

let row_header () =
  Printf.printf "%-12s %-12s %-12s %8s %14s %12s %10s %10s\n%!" "stm"
    "structure" "workload" "threads" "ops/s" "commits" "aborts" "clock-ops"

let abort_breakdown reasons =
  List.filter (fun (_, n) -> n > 0) reasons
  |> List.map (fun (label, n) -> Printf.sprintf "%s=%d" label n)
  |> String.concat " "

(* One-line phase decomposition: only phases that actually accumulated
   time, as percentages of the transaction wall-clock total. *)
let phase_breakdown (t : Driver.txn_telemetry) =
  if t.txn_total_ns <= 0 then ""
  else
    List.filter (fun (_, ns) -> ns > 0) t.phases
    |> List.map (fun (label, ns) ->
           Printf.sprintf "%s=%.1f%%" label
             (100. *. float_of_int ns /. float_of_int t.txn_total_ns))
    |> String.concat " "

let row (r : Driver.row) =
  Printf.printf "%-12s %-12s %-12s %8d %14.0f %12d %10d %10d\n%!" r.stm
    r.structure r.mix r.threads r.throughput r.commits r.aborts r.clock_ops;
  let breakdown = abort_breakdown r.abort_reasons in
  if breakdown <> "" then Printf.printf "  aborts: %s\n%!" breakdown;
  let phases = phase_breakdown r.telemetry in
  if phases <> "" then
    Printf.printf "  phases: %s  p50=%s p99=%s\n%!" phases
      (Twoplsf_obs.Histogram.pp_ns r.telemetry.p50_ns)
      (Twoplsf_obs.Histogram.pp_ns r.telemetry.p99_ns);
  Bench_artifact.record_row ~figure:!current_figure r

let latency_header () =
  Printf.printf "%-12s %8s %14s %12s %12s %12s %12s\n%!" "stm" "threads"
    "ops/s" "p50(ms)" "p90(ms)" "p99(ms)" "max(ms)"

let ms x = 1000. *. x

let latency_row ~stm ~threads ~throughput ~p50 ~p90 ~p99 ~max =
  Printf.printf "%-12s %8d %14.0f %12.3f %12.3f %12.3f %12.3f\n%!" stm threads
    throughput (ms p50) (ms p90) (ms p99) (ms max);
  Bench_artifact.record_latency ~figure:!current_figure ~stm ~threads
    ~throughput ~p50_ms:(ms p50) ~p90_ms:(ms p90) ~p99_ms:(ms p99)
    ~max_ms:(ms max)

(* ---- Per-run telemetry JSON dump ---- *)

let json_histogram buckets =
  let int n = Json.Num (float_of_int n) in
  let upper p =
    int (Twoplsf_obs.Histogram.percentile_upper_of_buckets buckets p)
  in
  Json.Obj
    [
      ("total", int (Array.fold_left ( + ) 0 buckets));
      ("p50_upper", upper 50.);
      ("p99_upper", upper 99.);
      ("buckets", Json.Arr (Array.to_list (Array.map int buckets)));
    ]

let json_of_scope sc =
  let module S = Twoplsf_obs.Scope in
  Json.Obj
    [
      ("name", Json.Str (S.name sc));
      ("abort_reasons", Json.of_counts (S.cumulative_abort_counts sc));
      ("events", Json.of_counts (S.cumulative_event_counts sc));
      ("phases_ns", Json.of_counts (S.cumulative_phase_counts sc));
      ("txn_total_ns", Json.Num (float_of_int (S.cumulative_txn_total_ns sc)));
      ( "histograms",
        Json.Obj
          [
            ("lock_wait_ns", json_histogram (S.hist_lock_wait sc));
            ("spin_iters", json_histogram (S.hist_spins sc));
            ("txn_ns", json_histogram (S.hist_txn sc));
          ] );
    ]

let write_telemetry_json ~path =
  let doc =
    Json.Obj
      [ ("scopes", Json.Arr (List.map json_of_scope (Twoplsf_obs.Scope.all ()))) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
