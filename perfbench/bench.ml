(* perfbench: one closed-loop workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints audit lines (raw next to host-normalised values, check results,
   failure classes) and, as the last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   Exits 1 if a correctness check fails. *)

let process_start = Util.Clock.now_ns ()

open Epochs

let reps = 5
let work_ns = 100_000_000
let ref_rate = Refkernel.ref_rate

(* ---- Metric output ------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ---- Derived figures ------------------------------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let speed rate = Pstats.speed ~rate ~ref_rate

(* Each epoch is scaled with the kernel rate measured around it
   (normalised ops = ops / speed, normalised CPU = CPU * speed, the CPU
   speed weighting the parts by the workload's [cpu_time_mix]), and a
   run reports the median over its epochs, which host phases shorter
   than half the run cannot move.  Latency percentiles are over every
   sample of the run, each scaled by its own epoch's speed. *)
let per_epoch f es = Pstats.median (Array.of_list (List.map f es))

let epoch_throughput ~norm e =
  let raw = float e.ops /. (float e.dur_ns /. 1e9) in
  if norm then Pstats.scale_rate ~rate:e.rate ~ref_rate raw else raw

let throughput ~norm es = per_epoch (epoch_throughput ~norm) es

let cpu_us_per_op ~mix es =
  per_epoch
    (fun e ->
      let raw = e.cpu_s *. 1e6 /. float (max 1 e.ops) in
      match mix with
      | Some mix -> Pstats.scale_time ~rate:(Refkernel.combine ~mix e.parts) ~ref_rate raw
      | None -> raw)
    es

let delta es slot = isum (fun e -> e.deltas.(slot)) es
let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float a) (float b)
let mb words = float (words * (Sys.word_size / 8)) /. 1048576.

let setup_s ~norm (r : result) =
  Pstats.median
    (Array.mapi
       (fun i raw -> if norm then Pstats.scale_time ~rate:r.setup_rate.(i) ~ref_rate raw else raw)
       r.setup_raw_s)

let pct h p = Pstats.hist_percentile h p /. 1e3

(* The host's own rate, whatever a workload's weights: every kernel part
   weighted equally, median over the run's epochs. *)
let host_rate (r : result) =
  let mix = Array.map (fun _ -> 1. /. float (Array.length Refkernel.ref_parts)) Refkernel.ref_parts in
  Pstats.median (Array.of_list (List.map (fun e -> Refkernel.combine ~mix e.parts) r.epochs))

(* Cost of the two clock reads that bracket every timed call. *)
let clock_pair_ns () =
  let n = 1_000_000 in
  let t0 = Util.Clock.now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Util.Clock.now_ns ()));
    ignore (Sys.opaque_identity (Util.Clock.now_ns ()))
  done;
  float (Util.Clock.now_ns () - t0) /. float n

let end_to_end (r : result) ~cpu_time_mix untraced =
  let attempted = isum (fun e -> e.ops) untraced in
  let failed = isum (fun e -> e.e_failed) untraced in
  let ok_frac = 1. -. fratio failed attempted in
  let rows =
    [
      ("throughput_ops_s", "1/s", throughput ~norm:true untraced, throughput ~norm:false untraced);
      ("latency_p50_us", "us", pct r.norm 50., pct r.raw 50.);
      ("latency_p99_us", "us", pct r.norm 99., pct r.raw 99.);
      ( "cpu_us_per_op",
        "us",
        cpu_us_per_op ~mix:(Some cpu_time_mix) untraced,
        cpu_us_per_op ~mix:None untraced );
      ("setup_s", "s", setup_s ~norm:true r, setup_s ~norm:false r);
      ("heap_peak_mb", "MB", mb r.gc_after.Gc.top_heap_words, nan);
      ("ok_frac", "frac", ok_frac, nan);
    ]
  in
  Printf.printf "latency samples: %d (%d above the raw p99)\n" r.raw.Pstats.n
    (Pstats.hist_count_above r.raw (int_of_float (Pstats.hist_percentile r.raw 99.)));
  Printf.printf "setup reps (s, raw @ speed): %s\n"
    (String.concat "  "
       (Array.to_list
          (Array.mapi
             (fun i raw -> Printf.sprintf "%.4f@%.3f" raw (speed r.setup_rate.(i)))
             r.setup_raw_s)));
  (if List.length untraced >= 2 then
     match Pstats.quantiles (Array.of_list (List.map (epoch_throughput ~norm:true) untraced)) with
     | [ q1; q2; q3 ] ->
         Printf.printf "normalised throughput over epochs: q1 %.1f  median %.1f  q3 %.1f ops/s\n"
           q1 q2 q3
     | _ -> ());
  Printf.printf "%-18s %18s %18s\n" "metric" "normalised" "raw";
  List.iter
    (fun (name, _, v, raw) ->
      Printf.printf "%-18s %18.4f %18s\n" name v
        (if Float.is_nan raw then "-" else Printf.sprintf "%.4f" raw))
    rows;
  (attempted, failed, List.map (fun (name, u, v, _) -> m name u v) rows)

let per_layer (r : result) (accs : Trace.acc array) untraced traced =
  let tot f = Array.fold_left (fun s a -> s + f a) 0 accs in
  let ops = tot (fun a -> a.Trace.ops) in
  let atomics = tot (fun a -> a.Trace.atomics) in
  let exec = Pstats.hist_create () in
  Array.iter (fun a -> Pstats.hist_merge ~into:exec a.Trace.exec_hist) accs;
  let dbx_ops = tot (fun a -> a.Trace.dbx_ops) in
  let traced_s = sum (fun e -> float e.dur_ns /. 1e9) traced in
  let all_ops = isum (fun e -> e.ops) r.epochs in
  let wal_records = delta traced Workloads.c_wal_records in
  let wal_fsyncs = delta traced Workloads.c_wal_fsyncs in
  let gc_all = r.gc_after and gc0 = r.gc_before in
  let thr_u = throughput ~norm:true untraced and thr_t = throughput ~norm:true traced in
  [
    m "structures.op_ns" "ns" (fratio (tot (fun a -> a.Trace.op_ns)) ops);
    m "structures.body_self_ns" "ns" (fratio (tot (fun a -> a.Trace.body_self_ns)) ops);
    m "stm.reads_per_op" "count" (fratio (tot (fun a -> a.Trace.reads)) ops);
    m "stm.read_ns" "ns" (fratio (tot (fun a -> a.Trace.read_ns)) (tot (fun a -> a.Trace.reads)));
    m "stm.begin_ns" "ns" (fratio (tot (fun a -> a.Trace.begin_ns)) ops);
    m "stm.commit_ns" "ns" (fratio (tot (fun a -> a.Trace.commit_ns)) ops);
    m "stm.writes_per_op" "count" (fratio (tot (fun a -> a.Trace.writes)) ops);
    m "stm.write_ns" "ns" (fratio (tot (fun a -> a.Trace.write_ns)) (tot (fun a -> a.Trace.writes)));
    m "stm.attempts_per_commit" "count" (fratio (tot (fun a -> a.Trace.attempts)) atomics);
    m "stm.clock_ops_per_commit" "count"
      (fratio (delta traced Workloads.c_stm_clock_ops) (delta traced Workloads.c_stm_commits));
    m "dbx.execute_ns_p50" "ns" (Pstats.hist_percentile exec 50.);
    m "dbx.execute_ns_p99" "ns" (Pstats.hist_percentile exec 99.);
    m "dbx.attempts_per_commit" "count" (fratio (tot (fun a -> a.Trace.dbx_attempts)) dbx_ops);
    m "dbx.restarted_frac" "frac" (fratio (tot (fun a -> a.Trace.dbx_restarted)) dbx_ops);
    m "dbx.max_restarts" "count"
      (float (Array.fold_left (fun s a -> max s a.Trace.dbx_max_restarts) 0 accs));
    m "dbx.gen_ns" "ns" (fratio (tot (fun a -> a.Trace.gen_ns)) dbx_ops);
    m "wal.records_per_fsync" "count" (fratio wal_records wal_fsyncs);
    m "wal.fsync_ns" "ns"
      (fratio (delta traced Workloads.c_io_fsync_ns) (delta traced Workloads.c_io_fsyncs));
    m "wal.fsync_busy_frac" "frac"
      (ratio (float (delta traced Workloads.c_io_fsync_ns) /. 1e9) traced_s);
    m "wal.write_calls_per_fsync" "count"
      (fratio (delta traced Workloads.c_io_write_calls) (delta traced Workloads.c_io_fsyncs));
    m "wal.log_bytes_per_user_byte" "ratio"
      (fratio (delta traced Workloads.c_wal_bytes) (tot (fun a -> a.Trace.user_bytes)));
    m "wal.checkpoints" "count" (float (delta r.epochs Workloads.c_io_ckpts));
    m "wal.checkpoint_ms" "ms"
      (fratio (delta r.epochs Workloads.c_io_ckpt_ns) (delta r.epochs Workloads.c_io_ckpts) /. 1e6);
    m "gc.minor_words_per_op" "words"
      (Array.fold_left (fun s w -> s +. w.minor_words) 0. r.workers_st
      /. float (max 1 (isum (fun e -> e.ops) untraced)));
    m "gc.promoted_words_per_op" "words"
      ((gc_all.Gc.promoted_words -. gc0.Gc.promoted_words) /. float (max 1 all_ops));
    m "gc.major_collections" "count" (float (gc_all.Gc.major_collections - gc0.Gc.major_collections));
    m "host.ref_rate" "1/s" (host_rate r);
    m "host.raw_throughput_ops_s" "1/s" (throughput ~norm:false untraced);
    m "trace.overhead_frac" "frac" (1. -. ratio thr_t thr_u);
    m "bench.clock_pair_ns" "ns" (clock_pair_ns ());
  ]

(* ---- Main ----------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME list-read | hash-churn | ycsb-hot | ycsb-durable");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.Workloads.name = !workload) Workloads.all with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let trace = !trace = 1 in
  let workers = min spec.workers (Domain.recommended_domain_count ()) in
  Printf.printf "workload %s  workers %d  seed %d  seconds %d  trace %b\n%!" spec.name workers
    !seed !seconds trace;
  let r, accs =
    Epochs.run ~workers ~mix:spec.mix ~seconds:!seconds ~work_ns ~trace ~reps ~warm_ops:spec.warm_ops ~process_start
      ~build:(fun ~rep -> spec.build ~seed:!seed ~trace ~rep)
  in
  let untraced = List.filter (fun e -> not e.traced) r.epochs in
  let traced = List.filter (fun e -> e.traced) r.epochs in
  let rate = Pstats.median (Array.of_list (List.map (fun e -> e.rate) r.epochs)) in
  Printf.printf
    "epochs %d  measured %.2f s  host.ref_rate %.4g (reference %.4g)  workload speed %.4f\n"
    (List.length r.epochs) r.wall_s (host_rate r) ref_rate (speed rate);
  Printf.printf "kernel parts (median units/s vs reference):%s\n"
    (String.concat ""
       (Array.to_list
          (Array.mapi
             (fun k name ->
               Printf.sprintf "  %s %.4g/%.4g" name
                 (Pstats.median (Array.of_list (List.map (fun e -> e.parts.(k)) r.epochs)))
                 Refkernel.ref_parts.(k))
             Refkernel.part_names)));
  let attempted, failed, e2e = end_to_end r ~cpu_time_mix:spec.cpu_time_mix untraced in
  let layers = if trace then per_layer r accs untraced traced else [] in
  let fails = Array.make 3 0 in
  Array.iter (fun w -> Array.iteri (fun i n -> fails.(i) <- fails.(i) + n) w.fails) r.workers_st;
  Printf.printf "failures: starved %d  deadline_exceeded %d  degraded_read_only %d  failed_frac %.6f\n"
    fails.(0) fails.(1) fails.(2) (fratio failed attempted);
  let bound = workers - 1 in
  let seen = Atomic.get Workloads.max_restarts in
  if spec.name = "ycsb-hot" && seen > bound then
    Printf.printf "warning: dbx.max_restarts %d exceeds the paper's bound workers-1 = %d\n" seen bound;
  let checks = r.final.check () in
  r.final.teardown ();
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "check %-24s %s (%s)\n" name (if ok then "ok" else "FAILED") detail)
    checks;
  if trace then begin
    if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
    let path = Filename.concat ".bench_build" ("perfbench-spans-" ^ spec.name ^ ".json") in
    Trace.write_spans path accs;
    Printf.printf "spans written to %s\n" path;
    List.iter (fun x -> Printf.printf "%-30s %.6g %s\n" x.m_name x.value x.unit_) layers
  end;
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  print_result ~correct ~attempted ~failed (if trace then layers else e2e);
  exit (if correct then 0 else 1)
