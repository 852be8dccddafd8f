(* Tests for the deterministic schedule explorer (DESIGN.md §14):

   - replay determinism: a recorded schedule, replayed through the
     Fixed strategy, reproduces the identical decision sequence and
     history hash — including through a save/load round-trip and with
     chaos fault injection active during the run;
   - chaos statelessness: draws are pure functions of
     (seed, tid, site, step), so interleaving other sites between two
     draws at one site cannot perturb them;
   - shrinking: ddmin converges to the minimal witness on a synthetic
     oracle and never returns an unconfirmed candidate;
   - PCT semantics: depth-0 PCT is strict priority scheduling (each
     worker runs to completion before the next starts);
   - replay verdicts: [Explore.replay] tells clean-as-recorded,
     reproduced and mismatched outcomes apart;
   - regression corpus: every committed trace in test/schedules/
     deterministically reproduces its recorded failure class against
     the seeded TinySTM bug it was found on, and passes cleanly once
     the bug is disabled. *)

module Chaos = Twoplsf_chaos.Chaos
module Sched = Twoplsf_sched.Sched
module Scenario = Twoplsf_sched.Scenario
module Trace = Twoplsf_sched.Trace
module Shrink = Twoplsf_sched.Shrink
module Explore = Twoplsf_sched.Explore

let check = Alcotest.check

let scenario =
  {
    Trace.default_scenario with
    Trace.stm = "TinySTM";
    threads = 3;
    accounts = 4;
    txns_per_thread = 5;
    abort_every = 3;
    audit_every = 4;
  }

let run_random seed =
  Scenario.run ~strategy:(Sched.Random_walk { seed }) scenario

let replay ?chaos (t : Trace.t) =
  Scenario.run ?chaos
    ~strategy:(Sched.Fixed { decisions = t.Trace.decisions })
    t.Trace.scenario

(* ---- replay determinism ------------------------------------------- *)

let test_replay_determinism () =
  let o = run_random 42 in
  check (Alcotest.option Alcotest.string) "clean scenario" None
    (Option.map Scenario.failure_class o.Scenario.failure);
  let t =
    {
      Trace.version = Trace.version;
      strategy = "random seed=42";
      failure = None;
      scenario;
      decisions = o.Scenario.info.Sched.decisions;
    }
  in
  (* Round-trip through the on-disk format: replays must not depend on
     anything the serialization drops. *)
  let file = Filename.temp_file "sched" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save file t;
      let t' = Trace.load file in
      check Alcotest.int "decision count survives round-trip"
        (Array.length t.Trace.decisions)
        (Array.length t'.Trace.decisions);
      let r1 = replay t' and r2 = replay t' in
      check Alcotest.int "identical history hashes" r1.Scenario.history_hash
        r2.Scenario.history_hash;
      check Alcotest.bool "identical decision sequences" true
        (r1.Scenario.info.Sched.decisions = r2.Scenario.info.Sched.decisions);
      check Alcotest.int "replay matches recording" o.Scenario.history_hash
        r1.Scenario.history_hash;
      check Alcotest.int "no divergence on faithful replay" 0
        r1.Scenario.info.Sched.divergences)

let test_replay_determinism_with_chaos () =
  (* Active fault injection (delays, spurious restarts) must not break
     replay: draws are stateless in (seed, tid, site, step), and the
     schedule pins every step. *)
  let chaos =
    { Chaos.quiet with Chaos.seed = 7; delay_ppm = 20_000; spurious_ppm = 5_000 }
  in
  let o = Scenario.run ~chaos ~strategy:(Sched.Random_walk { seed = 9 }) scenario in
  let t =
    {
      Trace.version = Trace.version;
      strategy = "random seed=9 chaos";
      failure = Option.map Scenario.failure_class o.Scenario.failure;
      scenario;
      decisions = o.Scenario.info.Sched.decisions;
    }
  in
  let r1 = replay ~chaos t and r2 = replay ~chaos t in
  check Alcotest.int "chaos-active replay is bit-stable"
    r1.Scenario.history_hash r2.Scenario.history_hash;
  check Alcotest.int "chaos-active replay matches recording"
    o.Scenario.history_hash r1.Scenario.history_hash

(* ---- replay verdicts ---------------------------------------------- *)

(* The verdict as a comparable string: failures by class, since their
   rendered messages embed run-specific values. *)
let verdict t =
  match Explore.replay t with
  | Explore.Reproduced f -> "reproduced " ^ Scenario.failure_class f
  | v -> Explore.verdict_to_string v

let test_replay_verdicts () =
  let o = run_random 42 in
  let t =
    {
      Trace.version = Trace.version;
      strategy = "random seed=42";
      failure = None;
      scenario;
      decisions = o.Scenario.info.Sched.decisions;
    }
  in
  check Alcotest.string "clean trace replays clean"
    (Explore.verdict_to_string Explore.Clean)
    (verdict t);
  check Alcotest.string "a failure recorded on a clean run is a mismatch"
    (Explore.verdict_to_string
       (Explore.Mismatch { recorded = Some "conservation"; observed = None }))
    (verdict { t with Trace.failure = Some "conservation" })

(* ---- chaos draw statelessness ------------------------------------- *)

let test_chaos_step_purity () =
  (* Two enable/disable cycles with the same seed must yield the same
     per-(tid, site) decision streams regardless of what other sites
     fire in between: draws are keyed by (seed, tid, site, step), not
     by a shared RNG. *)
  let probe interleave =
    Chaos.enable ~config:{ Chaos.quiet with Chaos.seed = 13; spurious_ppm = 400_000 } ();
    let out =
      List.init 32 (fun _ ->
          if interleave then Chaos.point Chaos.Txn_body;
          Chaos.spurious Chaos.Write_lock_acquire)
    in
    Chaos.disable ();
    out
  in
  let a = probe false and b = probe true in
  check (Alcotest.list Alcotest.bool)
    "per-site stream unaffected by interleaved sites" a b

(* ---- shrinking ---------------------------------------------------- *)

let test_shrink_converges () =
  (* Synthetic oracle: fails iff the sequence keeps >= 3 marked
     elements.  ddmin must strip all 97 unmarked ones. *)
  let marked = (1, 5) in
  let input =
    Array.init 100 (fun i ->
        if i = 20 || i = 55 || i = 90 then marked else (0, i mod 7))
  in
  let trials = ref 0 in
  let oracle d =
    incr trials;
    Array.fold_left (fun n x -> if x = marked then n + 1 else n) 0 d >= 3
  in
  let out, stats = Shrink.shrink ~oracle input in
  check Alcotest.int "minimal witness" 3 (Array.length out);
  check Alcotest.bool "result still fails" true (oracle out);
  check Alcotest.int "from_len recorded" 100 stats.Shrink.from_len;
  check Alcotest.int "to_len recorded" 3 stats.Shrink.to_len;
  check Alcotest.bool "trial budget respected" true (stats.Shrink.trials <= 400)

let test_shrink_respects_budget () =
  let input = Array.init 64 (fun i -> (i mod 2, i mod 7)) in
  let oracle _ = true in
  let _, stats = Shrink.shrink ~oracle ~max_trials:10 input in
  check Alcotest.bool "stops at max_trials" true (stats.Shrink.trials <= 10)

(* ---- PCT semantics ------------------------------------------------ *)

let test_pct_depth0_is_strict_priority () =
  (* With no change points and a conflict-free workload (each worker
     only ever sees its peers parked, so nothing blocks), strict
     priority runs each worker to completion: the decision log is at
     most [threads] maximal runs of a single slot. *)
  let s =
    { scenario with Trace.stm = "2PLSF"; abort_every = 0; audit_every = 0 }
  in
  let o =
    Scenario.run
      ~strategy:(Sched.Pct { seed = 5; depth = 0; horizon = 512 })
      s
  in
  check (Alcotest.option Alcotest.string) "clean run" None
    (Option.map Scenario.failure_class o.Scenario.failure);
  let runs =
    Array.fold_left
      (fun (n, prev) (slot, _) -> if slot = prev then (n, prev) else (n + 1, slot))
      (0, -1) o.Scenario.info.Sched.decisions
    |> fst
  in
  check Alcotest.bool
    (Printf.sprintf "at most %d priority runs (got %d)" s.Trace.threads runs)
    true
    (runs <= s.Trace.threads);
  (* Same seed, same schedule. *)
  let o2 =
    Scenario.run
      ~strategy:(Sched.Pct { seed = 5; depth = 0; horizon = 512 })
      s
  in
  check Alcotest.int "PCT is deterministic per seed" o.Scenario.history_hash
    o2.Scenario.history_hash

(* ---- regression corpus -------------------------------------------- *)

let corpus () =
  (* dune runtest runs us in the build test dir (deps copied alongside);
     dune exec runs from the project root. *)
  let dir =
    if Sys.file_exists "schedules" then "schedules" else "test/schedules"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat dir f)

let test_corpus_reproduces file () =
  let t = Trace.load file in
  let recorded =
    match t.Trace.failure with
    | Some f -> f
    | None -> Alcotest.fail (file ^ ": corpus trace has no recorded failure")
  in
  check Alcotest.string (file ^ ": recorded failure reproduces")
    ("reproduced " ^ recorded) (verdict t)

let test_corpus_passes_when_fixed file () =
  (* The same schedule against unmodified TinySTM must be clean: the
     corpus pins the bug, not the schedule. *)
  let t = Trace.load file in
  let fixed =
    { t with Trace.scenario = { t.Trace.scenario with Trace.bug = None } }
  in
  check Alcotest.string (file ^ ": clean on fixed code")
    "recorded failure did not reproduce" (verdict fixed)

(* ---- explorer end-to-end ------------------------------------------ *)

let test_explore_finds_seeded_bug () =
  (* rollback-old-version manifests even under the round-robin probe,
     so one cheap iteration suffices for an end-to-end search test. *)
  let p =
    {
      Explore.default_params with
      Explore.scenario =
        {
          scenario with
          Trace.bug = Some "rollback-old-version";
          txns_per_thread = 6;
        };
      iters = 5;
      max_shrink_trials = 60;
    }
  in
  let r = Explore.search p in
  match r.Explore.found with
  | None -> Alcotest.fail "explorer missed the seeded bug"
  | Some f ->
      check Alcotest.bool "shrunk trace no longer than original" true
        (Array.length f.Explore.trace.Trace.decisions <= f.Explore.original_len);
      (* The packaged trace must itself replay to the same failure. *)
      let rr = replay f.Explore.trace in
      check (Alcotest.option Alcotest.string) "witness replays"
        (Some (Scenario.failure_class f.Explore.failure))
        (Option.map Scenario.failure_class rr.Scenario.failure)

let () =
  ignore (Util.Tid.register ());
  let corpus_cases =
    List.concat_map
      (fun f ->
        [
          Alcotest.test_case (Filename.basename f ^ " reproduces") `Quick
            (test_corpus_reproduces f);
          Alcotest.test_case (Filename.basename f ^ " clean when fixed") `Quick
            (test_corpus_passes_when_fixed f);
        ])
      (corpus ())
  in
  Alcotest.run "sched"
    [
      ( "replay",
        [
          Alcotest.test_case "determinism + round-trip" `Quick
            test_replay_determinism;
          Alcotest.test_case "determinism under chaos" `Quick
            test_replay_determinism_with_chaos;
          Alcotest.test_case "verdicts" `Quick test_replay_verdicts;
        ] );
      ( "chaos",
        [ Alcotest.test_case "per-site step purity" `Quick test_chaos_step_purity ] );
      ( "shrink",
        [
          Alcotest.test_case "converges to minimal witness" `Quick
            test_shrink_converges;
          Alcotest.test_case "respects trial budget" `Quick
            test_shrink_respects_budget;
        ] );
      ( "pct",
        [
          Alcotest.test_case "depth 0 is strict priority" `Quick
            test_pct_depth0_is_strict_priority;
        ] );
      ("corpus", corpus_cases);
      ( "explore",
        [
          Alcotest.test_case "finds seeded bug end-to-end" `Quick
            test_explore_finds_seeded_bug;
        ] );
    ]
