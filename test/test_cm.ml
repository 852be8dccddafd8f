(* Tests for the overload-protection layer (DESIGN.md §11): transaction
   deadlines, pluggable contention management, AIMD admission control and
   the serial-irrevocable fallback.

   - a transaction stuck behind a chaos-stalled lock holder raises the
     typed [Deadline_exceeded] with the same cleanliness contract as
     [Starved] (zero leaked locks, value conserved, table functional);
   - the backoff contention manager is deterministic under a fixed seed;
   - the AIMD admission gate halves its width under an abort storm and
     recovers additively once the window is healthy;
   - with the fallback enabled, transactions that exhaust their restart
     budget escalate through the serial-irrevocable path and commit
     exactly once (conservation) instead of raising [Starved];
   - every registry STM survives an instantly-blown deadline under
     contention with zero leaked locks and a conserved invariant. *)

module Chaos = Twoplsf_chaos.Chaos
module Stm = Twoplsf.Stm
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission

let check = Alcotest.check

(* Every test must leave the globals as it found them: injection off,
   admission gate down, default policy installed. *)
let with_clean_globals f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.disable ();
      Admission.uninstall ();
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

(* ---- deadline fires behind a chaos-stalled lock holder ---- *)

let test_deadline_stalled_victim () =
  with_clean_globals (fun () ->
      let tv = Stm.tvar 0 in
      Cm.install
        { Stm_intf.default_policy with Stm_intf.deadline_ns = 5_000_000 };
      let outcomes =
        Harness.Exec.run_each ~threads:2 (fun i ->
            if i = 0 then begin
              (* The victim: chaos stalls only this tid, and the
                 [Pre_commit] point it places after the write means it
                 sleeps ~100 ms while holding [tv]'s write lock — far
                 past the other worker's 5 ms budget.  It retries its own
                 occasional deadline (it can be queued behind worker 1's
                 brief lock holds with an already-blown budget). *)
              Chaos.enable
                ~config:
                  {
                    quiet_config with
                    Chaos.stall_ppm = 1_000_000;
                    stall_ms = 100.;
                    victim = Util.Tid.get ();
                  }
                ();
              let commits = ref 0 in
              while !commits = 0 do
                match
                  Stm.atomic (fun tx ->
                      let v = Stm.read tx tv in
                      Stm.write tx tv (v + 1);
                      Chaos.point Chaos.Pre_commit)
                with
                | () -> incr commits
                | exception Stm_intf.Deadline_exceeded _ -> ()
              done;
              (!commits, 0, 0)
            end
            else begin
              (* Hammer the same tvar until a deadline fires; each commit
                 adds 10 so the final audit can count both workers'
                 effects exactly. *)
              let commits = ref 0 and deadlines = ref 0 in
              let t0 = Util.Clock.now () in
              while !deadlines = 0 && Util.Clock.now () -. t0 < 5.0 do
                match
                  Stm.atomic (fun tx ->
                      let v = Stm.read tx tv in
                      Stm.write tx tv (v + 10))
                with
                | () ->
                    incr commits;
                    Unix.sleepf 0.001
                | exception
                    Stm_intf.Deadline_exceeded { stm; elapsed_ns; _ } ->
                    check Alcotest.string "stm name" "2PLSF" stm;
                    check Alcotest.bool "elapsed >= budget" true
                      (elapsed_ns >= 5_000_000);
                    incr deadlines
              done;
              (0, !commits, !deadlines)
            end)
      in
      Chaos.disable ();
      Stm_intf.install_policy Stm_intf.default_policy;
      let victim_commits, other_commits, other_deadlines =
        match outcomes with
        | [ (v, _, _); (_, c, d) ] -> (v, c, d)
        | _ -> Alcotest.fail "expected two workers"
      in
      check Alcotest.int "victim committed once" 1 victim_commits;
      check Alcotest.bool "a deadline fired behind the stalled victim" true
        (other_deadlines > 0);
      check Alcotest.int "zero leaked locks" 0 (Stm.leaked_locks ());
      (* Every aborted attempt rolled back: the value reflects exactly the
         committed increments of both workers, and the table is usable. *)
      check Alcotest.int "value conserved"
        (victim_commits + (10 * other_commits))
        (Stm.atomic (fun tx -> Stm.read tx tv)))

(* ---- backoff determinism under a fixed seed ---- *)

let test_backoff_determinism () =
  with_clean_globals (fun () ->
      let draw () =
        List.init 32 (fun r -> Cm.backoff_delay_ns ~tid:0 ~restarts:r)
      in
      Cm.reseed 0xD5EED;
      let a = draw () in
      Cm.reseed 0xD5EED;
      let b = draw () in
      check Alcotest.(list int) "same seed, same delays" a b;
      Cm.reseed 0x0DD5;
      let c = draw () in
      check Alcotest.bool "different seed, different delays" true (a <> c);
      (* Delays respect the cap and stay positive. *)
      List.iter
        (fun d -> check Alcotest.bool "1 <= d <= 1ms" true (d >= 1 && d <= 1_000_000))
        a;
      (* Distinct threads draw from distinct streams. *)
      Cm.reseed 0xD5EED;
      let t1 = List.init 32 (fun r -> Cm.backoff_delay_ns ~tid:1 ~restarts:r) in
      check Alcotest.bool "per-thread streams differ" true (a <> t1))

(* ---- AIMD gate shrinks under an abort storm, recovers additively ---- *)

let test_admission_aimd () =
  with_clean_globals (fun () ->
      let commits = ref 0 and aborts = ref 0 in
      Admission.install ~max_width:64
        ~sample:(fun () -> (!commits, !aborts))
        ();
      check Alcotest.int "gate opens at max width" 64 (Admission.width ());
      (* Abort storm: two windows at 90% abort rate halve twice. *)
      commits := !commits + 10;
      aborts := !aborts + 90;
      Admission.tick ();
      check Alcotest.int "first shrink" 32 (Admission.width ());
      commits := !commits + 10;
      aborts := !aborts + 90;
      Admission.tick ();
      check Alcotest.int "second shrink" 16 (Admission.width ());
      (* Healthy window: additive recovery, one step per window. *)
      commits := !commits + 100;
      Admission.tick ();
      check Alcotest.int "additive recovery" 17 (Admission.width ());
      (* A near-idle window (< 16 samples) also counts as healthy. *)
      commits := !commits + 3;
      Admission.tick ();
      check Alcotest.int "idle window grows" 18 (Admission.width ());
      (* The gate itself admits and releases. *)
      Admission.enter ();
      check Alcotest.int "inflight" 1 (Admission.inflight ());
      Admission.leave ();
      check Alcotest.int "inflight drained" 0 (Admission.inflight ()))

(* ---- exhausted restart budget escalates instead of starving ---- *)

let test_escalation_conserves () =
  with_clean_globals (fun () ->
      let module T = Harness.Transfer.Make (Stm) in
      let t = T.create ~n:8 ~initial:100 in
      Cm.install
        {
          Stm_intf.default_policy with
          Stm_intf.max_restarts = 2;
          fallback = true;
        };
      (* Every third acquisition spuriously fails: the restart bound is
         hit constantly, and with the fallback on the only legal outcome
         is escalation, never [Starved]. *)
      Chaos.enable
        ~config:{ quiet_config with Chaos.spurious_ppm = 300_000 }
        ();
      let esc0 = Cm.escalations () in
      let starved = Atomic.make 0 in
      let res =
        Harness.Exec.run_timed ~threads:4 ~seconds:0.2 (fun i should_stop ->
            let rng = Util.Sprng.create (0xE5CA + (i * 7919)) in
            let ops = ref 0 in
            while not (should_stop ()) do
              let a = Util.Sprng.int rng 8 in
              let b = Util.Sprng.int rng 8 in
              match T.transfer t rng ~a ~b ~amt:1 with
              | () -> incr ops
              | exception Stm_intf.Starved _ -> Atomic.incr starved
            done;
            !ops)
      in
      Chaos.disable ();
      Stm_intf.install_policy Stm_intf.default_policy;
      check Alcotest.bool "made progress" true (res.Harness.Exec.ops > 0);
      check Alcotest.bool "escalations fired" true
        (Cm.escalations () > esc0);
      check Alcotest.int "never starved" 0 (Atomic.get starved);
      let audit = T.audit t in
      check Alcotest.int "zero leaked locks" 0 audit.Harness.Transfer.leaked;
      check Alcotest.int "conserved (each escalated txn committed once)"
        (8 * 100) audit.Harness.Transfer.total)

(* ---- Deadline_exceeded cleanliness for every named STM ---- *)

let test_deadline_cleanliness_all_stms () =
  with_clean_globals (fun () ->
      let total_deadlines = ref 0 in
      List.iter
        (fun (module S : Stm_intf.STM) ->
          let module T = Harness.Transfer.Make (S) in
          let t = T.create ~n:4 ~initial:100 in
          (* A 1 ns budget is blown the moment any attempt has to wait or
             abort: under 4-way contention on 4 accounts the deadline path
             runs constantly, and the invariants below are exactly the
             [Starved] cleanliness contract. *)
          Cm.install
            { Stm_intf.default_policy with Stm_intf.deadline_ns = 1 };
          let deadlines = Atomic.make 0 in
          ignore
            (Harness.Exec.run_timed ~threads:4 ~seconds:0.1
               (fun i should_stop ->
                 let rng = Util.Sprng.create (0xDEAD + (i * 104729)) in
                 let ops = ref 0 in
                 while not (should_stop ()) do
                   let a = Util.Sprng.int rng 4 in
                   let b = Util.Sprng.int rng 4 in
                   match T.transfer t rng ~a ~b ~amt:1 with
                   | () -> incr ops
                   | exception Stm_intf.Deadline_exceeded _ ->
                       Atomic.incr deadlines
                 done;
                 !ops));
          (* Disarm before the audit so the sum transaction itself cannot
             blow the 1 ns budget. *)
          Stm_intf.install_policy Stm_intf.default_policy;
          total_deadlines := !total_deadlines + Atomic.get deadlines;
          let audit = T.audit t in
          check Alcotest.int
            (S.name ^ ": zero leaked locks")
            0 audit.Harness.Transfer.leaked;
          check Alcotest.int (S.name ^ ": conserved") (4 * 100)
            audit.Harness.Transfer.total)
        (List.map Baselines.Registry.find Baselines.Registry.names);
      check Alcotest.bool "deadline path exercised" true
        (!total_deadlines > 0))

let () =
  ignore (Util.Tid.register ());
  Alcotest.run "cm"
    [
      ( "cm",
        [
          Alcotest.test_case "deadline fires behind stalled victim" `Quick
            test_deadline_stalled_victim;
          Alcotest.test_case "backoff determinism" `Quick
            test_backoff_determinism;
          Alcotest.test_case "AIMD admission gate" `Quick
            test_admission_aimd;
          Alcotest.test_case "escalation conserves, never starves" `Quick
            test_escalation_conserves;
          Alcotest.test_case "deadline cleanliness, every STM" `Quick
            test_deadline_cleanliness_all_stms;
        ] );
    ]
