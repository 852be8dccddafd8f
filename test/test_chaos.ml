(* Tests for the seeded fault-injection layer (DESIGN.md §10) and the
   exception-safety hardening it exists to exercise:

   - determinism: the same seed yields the same per-thread decision trace;
   - every registry STM survives an exception escaping the transaction
     body — value rolled back, zero leaked locks — both for a plain user
     exception and for a chaos-injected one;
   - a spurious-restart storm (forced acquisition failures) converges and
     conserves the workload invariant;
   - the shared transfer audit commits on a large table with full
     injection on (it pauses injection for its own transaction);
   - a stalled victim thread does not trip the runtime-verification
     watchdog (stalls are slowness, not deadlock);
   - Harness.Exec contains a crashing worker: all domains joined, Tid
     slots released, first exception re-raised, siblings' results intact;
   - the typed [Stm_intf.Starved] error fires at the restart bound and
     leaves the lock table clean. *)

module Chaos = Twoplsf_chaos.Chaos
module Stm = Twoplsf.Stm

let check = Alcotest.check

(* Every test must leave the globals as it found them: injection off,
   restarts unbounded. *)
let with_clean_globals f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.disable ();
      Stm_intf.install_policy Stm_intf.default_policy)
    f

let quiet_config =
  {
    Chaos.default with
    Chaos.delay_ppm = 0;
    yield_ppm = 0;
    spurious_ppm = 0;
    exn_ppm = 0;
    stall_ppm = 0;
  }

(* ---- same seed, same per-thread decision trace ---- *)

let trace_once ~seed =
  Chaos.enable
    ~config:
      {
        quiet_config with
        Chaos.seed;
        delay_ppm = 200_000;
        delay_max_spins = 8;
        yield_ppm = 100_000;
      }
    ();
  Chaos.set_trace 256;
  for _ = 1 to 200 do
    Chaos.point Chaos.Txn_body;
    Chaos.point Chaos.Pre_commit
  done;
  let tr = Chaos.trace () in
  Chaos.disable ();
  tr

let test_seed_reproducibility () =
  with_clean_globals (fun () ->
      let t1 = trace_once ~seed:0xFEED in
      let t2 = trace_once ~seed:0xFEED in
      let t3 = trace_once ~seed:0xBEEF in
      check Alcotest.bool "trace non-trivial" true (List.length t1 > 0);
      check Alcotest.bool "same seed, same trace" true (t1 = t2);
      check Alcotest.bool "different seed, different trace" true (t1 <> t3))

(* ---- exception escape leaves every named STM clean ---- *)

exception Boom

let test_exception_cleanup_one (module S : Stm_intf.STM) =
  let tv = S.tvar 7 in
  (* Plain user exception after a write: undo (or redo discard) must run
     and every lock must drop. *)
  (match S.atomic (fun tx -> S.write tx tv 42; raise Boom) with
  | () -> Alcotest.failf "%s: Boom did not propagate" S.name
  | exception Boom -> ()
  | exception e ->
      Alcotest.failf "%s: expected Boom, got %s" S.name (Printexc.to_string e));
  check Alcotest.int (S.name ^ ": rolled back") 7
    (S.atomic ~read_only:true (fun tx -> S.read tx tv));
  check Alcotest.int (S.name ^ ": zero leaked locks") 0 (S.leaked_locks ());
  (* Same via the chaos layer: exn_ppm = 1e6 injects on every body.  The
     wrapped module packs its own abstract [tvar], so it is used
     end-to-end here. *)
  let (module C : Stm_intf.STM) = Baselines.Registry.chaos_wrap (module S) in
  let tv2 = C.tvar 7 in
  Chaos.enable ~config:{ quiet_config with Chaos.exn_ppm = 1_000_000 } ();
  (match C.atomic (fun tx -> C.write tx tv2 42) with
  | () -> Alcotest.failf "%s: no injected fault" S.name
  | exception Chaos.Injected_fault _ -> ());
  Chaos.disable ();
  check Alcotest.int (S.name ^ ": rolled back (injected)") 7
    (C.atomic ~read_only:true (fun tx -> C.read tx tv2));
  check Alcotest.int (S.name ^ ": zero leaked locks (injected)") 0
    (C.leaked_locks ())

let test_exception_cleanup () =
  with_clean_globals (fun () ->
      List.iter test_exception_cleanup_one
        (List.map Baselines.Registry.find Baselines.Registry.names))

(* ---- spurious-restart storm converges and conserves ---- *)

module T = Harness.Transfer.Make (Stm)

let test_spurious_storm () =
  with_clean_globals (fun () ->
      let n = 32 in
      let t = T.create ~n ~initial:100 in
      Chaos.enable
        ~config:{ quiet_config with Chaos.spurious_ppm = 300_000 }
        ();
      let txns_per_worker = 500 in
      ignore
        (Harness.Exec.run_each ~threads:4 (fun i ->
             let rng = Util.Sprng.create (0xAB + i) in
             for _ = 1 to txns_per_worker do
               let a = Util.Sprng.int rng n in
               let b = Util.Sprng.int rng n in
               T.transfer t rng ~a ~b ~amt:3
             done));
      Chaos.disable ();
      let audit = T.audit t in
      check Alcotest.int "conserved" (n * 100) audit.Harness.Transfer.total;
      check Alcotest.int "zero leaked locks" 0 audit.Harness.Transfer.leaked;
      let spurious = List.assoc "spurious" (Chaos.counts ()) in
      check Alcotest.bool "storm actually injected" true (spurious > 0))

(* ---- the shared audit commits under full injection ---- *)

(* A 4096-account read-only sum under [Chaos.default] almost never gets
   through every acquisition without a spurious restart or injected
   fault; the audit pauses injection, so it commits, and restores it. *)
let test_audit_under_injection () =
  with_clean_globals (fun () ->
      let t = T.create ~n:4096 ~initial:1_000 in
      Chaos.enable ~config:Chaos.default ();
      let audit = T.audit t in
      check Alcotest.bool "injection restored" true (Chaos.enabled ());
      check Alcotest.int "conserved" (4096 * 1_000)
        audit.Harness.Transfer.total;
      check Alcotest.int "zero leaked locks" 0 audit.Harness.Transfer.leaked)

(* ---- stalled victim passes the watchdog ---- *)

let test_stalled_victim_watchdog () =
  with_clean_globals (fun () ->
      let module Obs = Twoplsf_obs in
      let n = 32 in
      let accounts = Array.init n (fun _ -> Stm.tvar 100) in
      Obs.Watchdog.start ~interval_ms:10 ();
      let v0 = Obs.Watchdog.violations () in
      Chaos.enable
        ~config:
          {
            quiet_config with
            Chaos.stall_ppm = 20_000;
            stall_ms = 5.0;
            victim = 2;
            spurious_ppm = 50_000;
          }
        ();
      ignore
        (Harness.Exec.run_each ~threads:4 (fun i ->
             let rng = Util.Sprng.create (0xCD + i) in
             for _ = 1 to 300 do
               let a = Util.Sprng.int rng n and b = Util.Sprng.int rng n in
               Stm.atomic (fun tx ->
                   let va = Stm.read tx accounts.(a) in
                   if a <> b then Stm.write tx accounts.(b) (va + 1))
             done));
      Chaos.disable ();
      Obs.Watchdog.stop ();
      check Alcotest.int "no invariant violations"
        v0
        (Obs.Watchdog.violations ());
      check Alcotest.int "zero leaked locks" 0 (Stm.leaked_locks ()))

(* ---- Exec crash containment ---- *)

let test_exec_crash_containment () =
  (* First failure re-raised, but only after every domain joined. *)
  let joined = Atomic.make 0 in
  (match
     Harness.Exec.run_each ~threads:4 (fun i ->
         if i = 2 then raise Boom;
         Atomic.incr joined;
         i)
   with
  | _ -> Alcotest.fail "worker crash not re-raised"
  | exception Boom -> ());
  check Alcotest.int "siblings ran to completion" 3 (Atomic.get joined);
  (* Result-level API: siblings intact, the crash isolated as Error. *)
  (match Harness.Exec.run_each_results ~threads:3 (fun i ->
       if i = 1 then raise Boom else 10 * i)
   with
  | [ Ok 0; Error Boom; Ok 20 ] -> ()
  | _ -> Alcotest.fail "unexpected run_each_results shape");
  (* Tid slots must be released even by crashing workers: far more
     spawn waves than there are slots. *)
  for _ = 1 to 60 do
    match Harness.Exec.run_each ~threads:4 (fun i ->
        if i = 0 then raise Boom else i)
    with
    | _ -> Alcotest.fail "crash swallowed"
    | exception Boom -> ()
  done;
  (* run_timed also survives a crashing worker. *)
  match
    Harness.Exec.run_timed ~threads:2 ~seconds:0.05 (fun i should_stop ->
        if i = 1 then raise Boom;
        let n = ref 0 in
        while not (should_stop ()) do incr n done;
        !n)
  with
  | _ -> Alcotest.fail "run_timed crash not re-raised"
  | exception Boom -> ()

(* ---- the read fast path leaves instrumentation untouched ---- *)

(* With chaos or telemetry on, [Rwl_sf.try_or_wait_read_lock] takes its
   observed path: probe for a held lock, then arrive and check with the
   sync points and the [Read_lock_fast] event in between.  These tests
   pin that the one-load fast path changed neither. *)

module Obs = Twoplsf_obs

let read_lock_fast_events () =
  match Obs.Scope.find "2PLSF" with
  | Some sc -> List.assoc "read-lock-fast" (Obs.Scope.event_counts sc)
  | None -> Alcotest.fail "no 2PLSF scope"

let test_one_fast_event_per_lock () =
  let tv = Stm.tvar 3 in
  Fun.protect ~finally:Obs.Telemetry.disable (fun () ->
      Obs.Telemetry.enable ();
      let before = read_lock_fast_events () in
      Stm.atomic (fun tx ->
          for _ = 1 to 3 do
            ignore (Stm.read tx tv)
          done);
      check Alcotest.int "one read-lock-fast event" 1
        (read_lock_fast_events () - before))

(* Site codes visited, oldest first, while [f] runs under a logging
   scheduler hook. *)
let sites_visited f =
  let log = ref [] in
  Chaos.hook := Some (fun s -> log := Chaos.site_code s :: !log);
  Fun.protect
    ~finally:(fun () -> Chaos.hook := None)
    (fun () ->
      f (fun () -> List.length !log);
      List.rev !log)

let test_reread_visits_no_site () =
  with_clean_globals (fun () ->
      let a = Stm.tvar 1 and b = Stm.tvar 2 in
      Chaos.enable ~config:quiet_config ();
      let sites =
        sites_visited (fun visits ->
            Stm.atomic (fun tx ->
                ignore (Stm.read tx a);
                Stm.write tx b 5;
                let n = visits () in
                ignore (Stm.read tx a);
                ignore (Stm.read tx b);
                check Alcotest.int "re-reads visit no sync point" n (visits ())))
      in
      check Alcotest.bool "fresh accesses visit sync points" true (sites <> []))

(* The sequence a fixed-seed run visited before the fold; codes are
   0 read-lock-arrive, 1 read-lock-check, 3 write-lock-acquire,
   7 pre-commit, 8 mid-rollback. *)
let fixed_seed_sites =
  "0 0 1 0 0 1 3 3 7 0 8 0 0 1 0 0 1 3 3 8 0 0 1 0 0 1 3 3 7 0 \
   8 0 0 1 0 0 1 3 3 7 0 8 0 8 0 0 1 0 0 1 3 3 8 0 8 0 0 1 0 0 \
   1 3 8 0 0 1 0 0 1 3 3 7 0 0 1 0 0 1 3 3 8 0 0 1 0 8 0 8 0 0 \
   1 0 0 1 3 3 7 0 0 1 0 8 0 0 1 0 8 0 0 1 0 0 1 3 3 7"

let test_fixed_seed_sites () =
  with_clean_globals (fun () ->
      let accts = Array.init 4 (fun i -> Stm.tvar (10 * i)) in
      Chaos.enable
        ~config:{ quiet_config with Chaos.seed = 0x2B1F; spurious_ppm = 250_000 }
        ();
      let sites =
        sites_visited (fun _ ->
            for i = 0 to 5 do
              let a = accts.(i mod 4) and b = accts.((i + 1) mod 4) in
              Stm.atomic (fun tx ->
                  let x = Stm.read tx a in
                  let y = Stm.read tx b in
                  ignore (Stm.read tx a);
                  Stm.write tx a (x - 1);
                  Stm.write tx b (y + 1);
                  ignore (Stm.read tx b))
            done)
      in
      let got = String.concat " " (List.map string_of_int sites) in
      check Alcotest.string "same sites as before the fold" fixed_seed_sites got;
      check Alcotest.int "zero leaked locks" 0 (Stm.leaked_locks ()))

(* ---- typed Starved error at the restart bound ---- *)

let test_starved () =
  with_clean_globals (fun () ->
      let tv = Stm.tvar 1 in
      Stm_intf.install_policy
        { Stm_intf.default_policy with Stm_intf.max_restarts = 5 };
      (* Every acquisition spuriously fails: no transaction with a
         non-empty footprint can ever commit. *)
      Chaos.enable
        ~config:{ quiet_config with Chaos.spurious_ppm = 1_000_000 }
        ();
      (match Stm.atomic (fun tx -> Stm.read tx tv) with
      | _ -> Alcotest.fail "expected Starved"
      | exception Stm_intf.Starved { stm; restarts; abort_reasons = _ } ->
          check Alcotest.string "stm name" "2PLSF" stm;
          check Alcotest.int "restart bound" 5 restarts);
      Chaos.disable ();
      Stm_intf.install_policy Stm_intf.default_policy;
      check Alcotest.int "zero leaked locks" 0 (Stm.leaked_locks ());
      (* The table must still be fully functional afterwards. *)
      check Alcotest.int "table alive" 1
        (Stm.atomic (fun tx -> Stm.read tx tv)))

let () =
  ignore (Util.Tid.register ());
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "seed reproducibility" `Quick
            test_seed_reproducibility;
          Alcotest.test_case "exception cleanup, every STM" `Quick
            test_exception_cleanup;
          Alcotest.test_case "spurious storm converges" `Quick
            test_spurious_storm;
          Alcotest.test_case "audit commits under injection" `Quick
            test_audit_under_injection;
          Alcotest.test_case "stalled victim vs watchdog" `Quick
            test_stalled_victim_watchdog;
          Alcotest.test_case "exec crash containment" `Quick
            test_exec_crash_containment;
          Alcotest.test_case "typed Starved error" `Quick test_starved;
        ] );
      ( "instrumentation parity",
        [
          Alcotest.test_case "one read-lock-fast event per lock" `Quick
            test_one_fast_event_per_lock;
          Alcotest.test_case "re-read visits no sync point" `Quick
            test_reread_visits_no_site;
          Alcotest.test_case "fixed-seed site sequence" `Quick
            test_fixed_seed_sites;
        ] );
    ]
