(* The one front end: regenerates every figure of the paper's
   evaluation (Figures 2-8, 10, 11 plus the DESIGN.md ablations), runs
   the Bechamel per-operation suite, and runs the robustness scenarios.

     dune exec bench/main.exe                 # everything, default params
     dune exec bench/main.exe -- --figure 11  # one figure
     dune exec bench/main.exe -- --quick      # fast smoke pass
     dune exec bench/main.exe -- --threads 1,2,4,8 --seconds 1.0 --big

   --stms narrows a figure to some of its series, so one data point is

     dune exec bench/main.exe -- --figure 4 --stms TL2 --threads 2 --no-bechamel

   The robustness soaks share one set of flags (DESIGN.md §10-12, 14-16):

     dune exec bench/main.exe -- --scenario chaos --seconds 10 --threads 4
     dune exec bench/main.exe -- --scenario overload --seconds 5 --stms 2PLSF
     dune exec bench/main.exe -- --scenario explore --cycles 200
     dune exec bench/main.exe -- --scenario explore --cycles 50 --threads 3 \
       --bug rollback-old-version      # writes explore-TinySTM-<bug>.json
     dune exec bench/main.exe -- --scenario explore --replay WITNESS.json
     dune exec bench/main.exe -- --scenario crash --cycles 54
     dune exec bench/main.exe -- --scenario disk --cycles 48

   Thread sweeps on a host with few cores (the reference host has 2
   vCPUs) measure concurrency-control behaviour under OS interleaving
   more than parallel speedup (DESIGN.md §3.1).

   Exit status: 0 clean, 1 a failed check (or a replayed failure
   reproduced), 2 bad usage, 3 a replay that was nondeterministic or not
   as recorded. *)

let parse_list s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let parse_threads s = List.map int_of_string (parse_list s)

let usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let () =
  let figure = ref 0 in
  let threads = ref None in
  let seconds = ref None in
  let big = ref false in
  let quick = ref false in
  let no_bechamel = ref false in
  let runs = ref 1 in
  let telemetry = ref false in
  let trace = ref "" in
  let telemetry_out = ref "telemetry.json" in
  let watchdog = ref false in
  let monitor_interval = ref 100 in
  let monitor_out = ref "" in
  let monitor_console = ref false in
  let chaos = ref false in
  let chaos_seed = ref 0 in
  let scenario = ref "" in
  let stms = ref [] in
  let cycles = ref 0 in
  let seed = ref 0 in
  let dir = ref "wal-crash-soak" in
  let max_restarts = ref 0 in
  let zipf_theta = ref 0.9 in
  let deadline_ms = ref 0.0 in
  let cm_name = ref "paper" in
  let admission = ref false in
  let fallback = ref false in
  let no_fallback = ref false in
  let bench_out = ref "" in
  let metrics_port = ref (-1) in
  let conflict_map = ref false in
  let bug = ref "" in
  let replay = ref "" in
  (* Hidden flags of the re-exec'd crash-soak child. *)
  let crash_child = ref "" in
  let crash_site = ref (-1) in
  let crash_after = ref 0 in
  let spec =
    [
      ( "--figure",
        Arg.Set_int figure,
        Printf.sprintf "N  run only figure N (%s)"
          (String.concat ", "
             (List.map (fun (n, _, _, _) -> string_of_int n) Figures.all)) );
      ( "--threads",
        Arg.String (fun s -> threads := Some (parse_threads s)),
        "LIST  comma-separated thread counts (default 1,2,4); a scenario \
         takes the largest (default 4; overload: 2x domains; explore: 2)" );
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S  seconds per data point (default 0.4), per STM (chaos and \
         overload: required) or per cycle (crash 1.0, disk 0.35)" );
      ("--big", Arg.Set big, " paper-scale key ranges (10x larger)");
      ("--quick", Arg.Set quick, " fast smoke pass (threads 1,2; 0.15s)");
      ("--no-bechamel", Arg.Set no_bechamel, " skip the per-op suite");
      ( "--runs",
        Arg.Set_int runs,
        "N  average each set/map data point over N runs (default 1; paper: 5)"
      );
      ( "--telemetry",
        Arg.Set telemetry,
        " enable abort-reason counters and wait/latency histograms" );
      ( "--trace",
        Arg.Set_string trace,
        "FILE  write a Chrome trace-event JSON (implies --telemetry)" );
      ( "--telemetry-out",
        Arg.Set_string telemetry_out,
        "FILE  telemetry JSON dump path (default telemetry.json)" );
      ( "--watchdog",
        Arg.Set watchdog,
        " run the runtime-verification watchdog (deadlock / starvation / \
         mutual-exclusion checks); exits non-zero on any invariant \
         violation" );
      ( "--monitor-interval",
        Arg.Set_int monitor_interval,
        "MS  watchdog/monitor sampling period in ms (default 100)" );
      ( "--monitor-out",
        Arg.Set_string monitor_out,
        "FILE  stream live JSONL monitor ticks to FILE (implies \
         --telemetry)" );
      ( "--monitor-console",
        Arg.Set monitor_console,
        " one-line live dashboard on stderr (implies --telemetry)" );
      ( "--chaos",
        Arg.Set chaos,
        " enable seeded fault injection (delays, yields, spurious restarts, \
         injected exceptions, victim stalls) for the whole run" );
      ( "--chaos-seed",
        Arg.Set_int chaos_seed,
        "N  chaos PRNG base seed (implies --chaos; default 0xC4A05)" );
      ( "--max-restarts",
        Arg.Set_int max_restarts,
        "N  raise the typed Starved error after N consecutive restarts of \
         one transaction (0 = unbounded, the default)" );
      ( "--zipf-theta",
        Arg.Set_float zipf_theta,
        "T  Zipfian skew of the overload scenario's keys (default 0.9)" );
      ( "--deadline-ms",
        Arg.Set_float deadline_ms,
        "MS  per-transaction completion budget; a transaction that blows \
         it restarts once with a fresh budget, then escalates (with the \
         fallback) or raises Deadline_exceeded (0 = none, the default)" );
      ( "--cm",
        Arg.Set_string cm_name,
        "P  contention manager: paper (each STM's native wait, the \
         default), backoff (capped exponential with per-thread jitter), \
         or hybrid (backoff then native)" );
      ( "--admission",
        Arg.Set admission,
        " AIMD admission gate on transaction entry: halves the concurrent-\
         transaction width when the abort rate spikes, recovers additively"
      );
      ( "--fallback",
        Arg.Set fallback,
        " escalate exhausted/late transactions through the serial-\
         irrevocable slow path instead of raising Starved / \
         Deadline_exceeded" );
      ( "--no-fallback",
        Arg.Set no_fallback,
        " force the fallback off (overrides the overload scenario's \
         default)" );
      ( "--bench-out",
        Arg.Set_string bench_out,
        "FILE  write the run's rows as a BENCH artifact (JSON schema v3, \
         DESIGN.md §12.2)" );
      ( "--metrics-port",
        Arg.Set_int metrics_port,
        "PORT  serve OpenMetrics on http://127.0.0.1:PORT/metrics for the \
         duration of the run (0 = ephemeral port; implies --telemetry)" );
      ( "--conflict-map",
        Arg.Set conflict_map,
        " record per-lock hotspot attribution and abort provenance \
         (DESIGN.md §13) into the benchmark artifact; render with \
         bin/conflictmap.exe (implies --telemetry)" );
      ( "--scenario",
        Arg.Symbol
          ([ "chaos"; "overload"; "explore"; "crash"; "disk" ], ( := ) scenario),
        "  run one robustness scenario instead of the figures: the \
         transfer soak under fault injection (chaos, implies --chaos; \
         overload, Zipfian keys + straggler, fallback on), PCT schedules \
         (explore) or WAL kill-recover-verify cycles (crash, disk); \
         DESIGN.md §10-11, 14-16" );
      ( "--stms",
        Arg.String (fun s -> stms := parse_list s),
        "LIST  comma-separated STM (or, for DBx figures, CC) names: the \
         STMs of a soak or search, or the series of the figures (default: \
         all)" );
      ( "--cycles",
        Arg.Set_int cycles,
        "N  schedules (explore) or cycles (crash, disk) to run" );
      ( "--seed",
        Arg.Set_int seed,
        "N  base seed of the explore, crash and disk scenarios (defaults \
         1, 0xC4A05 and 0xD15C)" );
      ( "--dir",
        Arg.Set_string dir,
        "DIR  WAL directory of the crash scenario (default wal-crash-soak)" );
      ( "--bug",
        Arg.Set_string bug,
        Printf.sprintf
          "NAME  explore TinySTM with a seeded bug (one of: %s); the shrunk \
           witness is written to explore-TinySTM-NAME.json"
          (String.concat ", " Baselines.Tinystm.bug_names) );
      ( "--replay",
        Arg.Set_string replay,
        "FILE  replay an explore witness twice instead of searching: exit 0 \
         clean as recorded, 1 recorded failure reproduced, 3 \
         nondeterministic or not as recorded" );
      (* Internal: the crash-soak child re-exec (not for direct use). *)
      ("--crash-child", Arg.Set_string crash_child, "DIR  (internal)");
      ("--crash-site", Arg.Set_int crash_site, "CODE  (internal)");
      ("--crash-after", Arg.Set_int crash_after, "K  (internal)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "2PLSF benchmark harness — regenerates the paper's figures";
  let fig_threads =
    if !quick then [ 1; 2 ] else Option.value !threads ~default:[ 1; 2; 4 ]
  in
  let fig_seconds =
    if !quick then 0.15 else Option.value !seconds ~default:0.4
  in
  (* A scenario runs one worker count: the largest given, else its own
     default; likewise its own default duration. *)
  let scenario_threads default =
    match !threads with Some l -> List.fold_left max 1 l | None -> default
  in
  let scenario_seconds default = Option.value !seconds ~default in
  (* Usage checks, all before anything runs. *)
  (match !scenario with
  | ("chaos" | "overload") when !seconds = None ->
      usage "--scenario: chaos and overload need --seconds S"
  | "explore" when !cycles <= 0 && !replay = "" ->
      usage "--scenario: explore needs --cycles N or --replay FILE"
  | ("crash" | "disk") when !cycles <= 0 ->
      usage "--scenario: crash and disk need --cycles N"
  | _ -> ());
  if (!bug <> "" || !replay <> "") && !scenario <> "explore" then
    usage "--bug and --replay need --scenario explore";
  if !bug <> "" then begin
    if not (List.mem !bug Baselines.Tinystm.bug_names) then
      usage "--bug: unknown bug %s (one of: %s)" !bug
        (String.concat ", " Baselines.Tinystm.bug_names);
    if List.exists (( <> ) "TinySTM") !stms then
      usage "--bug seeds a TinySTM bug; it cannot run with --stms %s"
        (String.concat "," !stms);
    stms := [ "TinySTM" ]
  end;
  let figure_known (n, _, _, _) = !figure = 0 || n = !figure in
  if not (List.exists figure_known Figures.all) then
    usage "--figure: unknown figure %d (valid: %s)" !figure
      (String.concat ", "
         (List.map (fun (n, _, _, _) -> string_of_int n) Figures.all));
  (* The names --stms may pick from, by scenario or selected figures. *)
  let stm_names, what =
    match !scenario with
    | "chaos" | "overload" ->
        (Baselines.Registry.names, "--scenario " ^ !scenario)
    | "explore" -> (Twoplsf_sched.Scenario.supported, "--scenario explore")
    | "crash" | "disk" -> ([], "--scenario " ^ !scenario)
    | _ ->
        let names ((_, _, names, _) as f) =
          if figure_known f then names else []
        in
        ( List.sort_uniq compare (List.concat_map names Figures.all),
          if !figure = 0 then "the figures"
          else Printf.sprintf "figure %d" !figure )
  in
  List.iter
    (fun s ->
      if not (List.mem s stm_names) then
        usage "--stms: %s is not valid for %s (valid: %s)" s what
          (if stm_names = [] then "none" else String.concat ", " stm_names))
    !stms;
  let witness =
    if !replay = "" then None
    else
      match Twoplsf_sched.Trace.load !replay with
      | t -> Some t
      | exception (Sys_error m | Failure m | Harness.Json.Parse_error m) ->
          usage "--replay: cannot load %s: %s" !replay m
  in
  ignore (Util.Tid.register ());
  (* Crash-soak child: run the durable workload until the armed kill
     fires ([Unix._exit], no cleanup) and touch nothing else — no
     telemetry, watchdog or artifacts in the throwaway process. *)
  if !crash_child <> "" then begin
    Crash_soak.child ~dir:!crash_child ~site_code:!crash_site
      ~after:!crash_after ~seed:!seed ~threads:(scenario_threads 4)
      ~seconds:(scenario_seconds 1.0);
    exit 0
  end;
  (* A replay is deterministic and self-contained, like the child. *)
  Option.iter (fun t -> exit (Search.replay t ~path:!replay)) witness;
  let monitoring = !monitor_out <> "" || !monitor_console in
  if !watchdog || monitoring || !metrics_port >= 0 || !conflict_map then
    telemetry := true;
  if !trace <> "" then Twoplsf_obs.Telemetry.enable_tracing ()
  else if !telemetry then Twoplsf_obs.Telemetry.enable ();
  if !conflict_map then begin
    Twoplsf_obs.Conflict.enable ();
    Twoplsf_obs.Monitor.add_gauges ~name:"conflict"
      Twoplsf_obs.Scope.conflict_gauges
  end;
  if !metrics_port >= 0 then begin
    match Twoplsf_obs.Exporter.start ~port:!metrics_port () with
    | port ->
        Printf.printf "OpenMetrics: http://127.0.0.1:%d/metrics\n%!" port
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "metrics exporter: cannot bind port %d: %s\n%!"
          !metrics_port (Unix.error_message e);
        exit 1
  end;
  (* Start the watchdog before any lock table exists: tables register for
     introspection only when wait publication is already enabled. *)
  if !watchdog then
    Twoplsf_obs.Watchdog.start ~interval_ms:!monitor_interval ();
  if monitoring then
    Twoplsf_obs.Monitor.start ~interval_ms:!monitor_interval
      ?out_path:(if !monitor_out = "" then None else Some !monitor_out)
      ~console:!monitor_console ();
  (* One immutable policy record for every overload knob, installed before
     any worker domain exists (DESIGN.md §11). *)
  let policy =
    {
      Stm_intf.default_policy with
      Stm_intf.max_restarts = !max_restarts;
      deadline_ns = int_of_float (!deadline_ms *. 1e6);
      cm = Twoplsf_cm.Cm.choice_of_name !cm_name;
      admission = !admission;
      fallback =
        (if !no_fallback then false else !fallback || !scenario = "overload");
    }
  in
  Twoplsf_cm.Cm.install policy;
  if policy.Stm_intf.admission then Twoplsf_cm.Admission.install ();
  let module Chaos = Twoplsf_chaos.Chaos in
  let chaos_on = !chaos || !chaos_seed <> 0 || !scenario = "chaos" in
  if chaos_on then begin
    let cfg =
      if !chaos_seed <> 0 then { Chaos.default with Chaos.seed = !chaos_seed }
      else Chaos.default
    in
    Chaos.enable ~config:cfg ();
    Printf.printf "Chaos: enabled, seed=0x%X\n%!" (Chaos.seed ())
  end;
  let registry_stms () =
    if !stms = [] then Baselines.Registry.all
    else List.map Baselines.Registry.find !stms
  in
  let seed_or default = if !seed <> 0 then !seed else default in
  (* Failed checks of the scenario (its rows name them). *)
  let failures =
    match !scenario with
    | "disk" ->
        Disk_soak.run ~cycles:!cycles ~threads:(scenario_threads 4)
          ~seconds:(scenario_seconds 0.35) ~seed:(seed_or 0xD15C)
    | "crash" ->
        Crash_soak.run ~cycles:!cycles ~threads:(scenario_threads 4)
          ~seconds:(scenario_seconds 1.0) ~seed:(seed_or 0xC4A05) ~dir:!dir
    | "explore" ->
        Search.run
          ~stms:
            (if !stms = [] then Twoplsf_sched.Scenario.supported else !stms)
          ~bug:(if !bug = "" then None else Some !bug)
          ~threads:(scenario_threads 2) ~seed:(seed_or 1) ~cycles:!cycles
    | "overload" ->
        (* Oversubscribe on purpose: overload behaviour only shows when
           the scheduler preempts lock holders. *)
        Soak.overload ~stms:(registry_stms ())
          ~threads:(scenario_threads (2 * Domain.recommended_domain_count ()))
          ~seconds:(Option.get !seconds) ~theta:!zipf_theta
    | "chaos" ->
        let threads = List.fold_left Stdlib.max 1 fig_threads in
        Printf.printf
          "Chaos soak: %.1fs per STM, threads=%d, max-restarts=%d\n%!"
          (Option.get !seconds) threads !max_restarts;
        Soak.chaos ~stms:(registry_stms ()) ~threads
          ~seconds:(Option.get !seconds)
    | _ ->
        let p =
          {
            Figures.threads = fig_threads;
            seconds = fig_seconds;
            big = !big;
            runs = !runs;
            stms = !stms;
          }
        in
        Printf.printf
          "2PLSF reproduction benchmarks | threads=%s seconds=%.2f big=%b\n%!"
          (String.concat "," (List.map string_of_int p.threads))
          p.seconds p.big;
        if not !no_bechamel then Bechamel_suite.run ();
        (* Every known figure, less those with no series in --stms. *)
        List.iter
          (fun ((_, _, names, run) as f) ->
            let picked =
              p.stms = [] || List.exists (fun s -> List.mem s names) p.stms
            in
            if figure_known f && picked then run p)
          Figures.all;
        0
  in
  if chaos_on && !scenario <> "" then
    List.iter
      (fun (cls, n) -> Printf.printf "  chaos %-9s %d\n%!" cls n)
      (Chaos.counts ());
  if !bench_out <> "" then begin
    let flags =
      String.concat " " (List.tl (Array.to_list Sys.argv))
    in
    Harness.Bench_artifact.write ~path:!bench_out ~flags;
    Printf.printf "\nBenchmark artifact: %s\n%!" !bench_out;
    if !conflict_map then
      Printf.printf "Conflict map: render with `conflictmap %s`\n%!"
        !bench_out
  end;
  if Twoplsf_obs.Exporter.running () then Twoplsf_obs.Exporter.stop ();
  if monitoring then begin
    Twoplsf_obs.Monitor.stop ();
    if !monitor_out <> "" then
      Printf.printf "\nMonitor stream: %s\n%!" !monitor_out
  end;
  if Twoplsf_obs.Telemetry.enabled () then begin
    Harness.Report.write_telemetry_json ~path:!telemetry_out;
    Printf.printf "\nTelemetry dump: %s\n%!" !telemetry_out
  end;
  if !trace <> "" then begin
    Twoplsf_obs.Tracer.export ~path:!trace;
    Printf.printf "Chrome trace: %s (load in Perfetto / chrome://tracing)\n%!"
      !trace
  end;
  if !watchdog then begin
    let module W = Twoplsf_obs.Watchdog in
    W.stop ();
    Printf.printf
      "\nWatchdog: %d ticks, %d invariant violations, %d starvation suspects\n%!"
      (W.ticks ()) (W.violations ())
      (W.starvation_reports ());
    List.iter (fun r -> Printf.printf "  %s\n%!" (W.report_to_string r)) (W.reports ());
    if W.violations () > 0 then begin
      prerr_endline "watchdog: invariant violation detected — failing the run";
      exit 1
    end
  end;
  if failures > 0 then begin
    Printf.eprintf "--scenario %s: %d failed check(s)\n" !scenario failures;
    exit 1
  end;
  print_endline "\nDone. See EXPERIMENTS.md for paper-vs-measured notes."
