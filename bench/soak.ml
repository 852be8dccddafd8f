(* The STM soaks (--scenario chaos | overload, DESIGN.md §10.3, §11.6):
   each STM runs the conserved-transfer kernel ([Harness.Transfer])
   chaos-wrapped for a fixed time, then the shared audit checks
   conservation and zero leaked locks.  The scenarios differ only in
   keys, straggler and latency recording: chaos draws 256 accounts
   uniformly (one phase per contention manager); overload draws 4096
   accounts Zipfian, records completion times for the tail, and worker 0
   doubles as a straggler that holds the hottest key's write lock across
   a sleep of ~4x the deadline, so waiters blow theirs. *)

module Chaos = Twoplsf_chaos.Chaos
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission

type keys = Uniform | Zipf of float

(* Straggler hold time: long enough that waiters must blow the deadline
   (4x budget), with a floor for deadline-less runs. *)
let stall_seconds () =
  let pol = Stm_intf.current_policy () in
  if pol.Stm_intf.deadline_ns > 0 then
    Float.max 0.002 (float_of_int pol.Stm_intf.deadline_ns *. 4e-9)
  else 0.002

(* Soak one STM under the installed policy, print its row (and record
   the overload artifact row); true when the audit passed. *)
let run_one (module S0 : Stm_intf.STM) ~keys ~threads ~seconds =
  let (module S : Stm_intf.STM) = Baselines.Registry.chaos_wrap (module S0) in
  let module T = Harness.Transfer.Make (S) in
  let overload = match keys with Uniform -> false | Zipf _ -> true in
  let t = T.create ~n:(if overload then 4096 else 256) ~initial:1_000 in
  let n = Array.length t.T.accounts in
  let cm = Cm.choice_name (Stm_intf.current_policy ()).Stm_intf.cm in
  Twoplsf_obs.Monitor.set_phase
    (if overload then Printf.sprintf "overload/%s/t=%d" S.name threads
     else Printf.sprintf "soak/%s/cm=%s/t=%d" S.name cm threads);
  S.reset_stats ();
  let esc0 = Cm.escalations () in
  let lat = Harness.Latency.create ~threads in
  let injected = Atomic.make 0 and starved = Atomic.make 0 in
  let deadlined = Atomic.make 0 in
  let stall_s = stall_seconds () in
  let guarded f =
    match f () with
    | () -> true
    | exception Chaos.Injected_fault _ -> Atomic.incr injected; false
    | exception Stm_intf.Starved _ -> Atomic.incr starved; false
    | exception Stm_intf.Deadline_exceeded _ -> Atomic.incr deadlined; false
  in
  let worker i should_stop =
    let rng, next_key =
      match keys with
      | Uniform ->
          let rng = Util.Sprng.create (0x50AC + (i * 7919)) in
          (rng, fun () -> Util.Sprng.int rng n)
      | Zipf theta ->
          let z = Util.Zipf.create ~seed:(0x0EAD + (i * 7919)) ~n ~theta () in
          (Util.Sprng.create (0x0BAD + (i * 104729)), fun () -> Util.Zipf.next z)
    in
    let ops = ref 0 in
    let last_stall = ref (Util.Clock.now ()) in
    while not (should_stop ()) do
      if overload && i = 0 && Util.Clock.now () -. !last_stall > 10. *. stall_s
      then begin
        (* The straggler: one write lock on the hottest key, held across
           a sleep.  It acquires nothing afterwards, so its own deadline
           can never fire; everyone queued behind it blows theirs. *)
        ignore
          (guarded (fun () ->
               S.atomic (fun tx ->
                   S.write tx t.T.accounts.(0) (S.read tx t.T.accounts.(0));
                   Unix.sleepf stall_s)));
        last_stall := Util.Clock.now ()
      end
      else begin
        let a = next_key () in
        let b = next_key () in
        let amt = 1 + Util.Sprng.int rng 16 in
        let t0 = if overload then Util.Clock.now () else 0. in
        if guarded (fun () -> T.transfer t rng ~a ~b ~amt) then begin
          incr ops;
          if overload then Harness.Latency.record lat i (Util.Clock.now () -. t0)
        end
      end
    done;
    !ops
  in
  let ops = (Harness.Exec.run_timed ~threads ~seconds worker).Harness.Exec.ops in
  let audit = T.audit t in
  let leaked = audit.Harness.Transfer.leaked in
  let sum_ok = Harness.Transfer.conserved audit in
  let sum = if sum_ok then "OK" else "MISMATCH" in
  let injected = Atomic.get injected and starved = Atomic.get starved in
  if overload then begin
    let p50_ms, p99_ms, p999_ms =
      if Harness.Latency.count lat = 0 then (0., 0., 0.)
      else
        match Harness.Latency.percentiles lat [ 50.; 99.; 99.9 ] with
        | [ (_, a); (_, b); (_, c) ] -> (a *. 1e3, b *. 1e3, c *. 1e3)
        | _ -> (0., 0., 0.)
    in
    let deadline_raises = Atomic.get deadlined in
    let fallbacks = Cm.escalations () - esc0 in
    Printf.printf
      "  overload %-14s ops=%-9d injected-exns=%-4d starved=%-3d \
       deadline-raises=%-4d fallbacks=%-4d leaked=%-3d sum=%s p50=%.2fms \
       p99=%.2fms p999=%.2fms\n%!"
      S.name ops injected starved deadline_raises fallbacks leaked sum p50_ms
      p99_ms p999_ms;
    Harness.Bench_artifact.record_overload ~stm:S.name ~ops ~starved
      ~deadline_raises ~fallbacks ~leaked ~sum_ok ~p50_ms ~p99_ms ~p999_ms
  end
  else
    Printf.printf
      "  %-14s cm=%-7s ops=%-9d injected-exns=%-6d starved=%-4d leaked=%-3d \
       sum=%s\n%!"
      S.name cm ops injected starved leaked sum;
  Harness.Transfer.audit_ok audit

(* Chaos soak: returns the number of (STM, contention-manager) phases
   that failed the audit.  The pre-soak policy is restored at the end. *)
let chaos ~stms ~threads ~seconds =
  let base = Stm_intf.current_policy () in
  let cms = [ Stm_intf.Cm_paper; Stm_intf.Cm_backoff; Stm_intf.Cm_hybrid ] in
  let seconds = seconds /. float_of_int (List.length cms) in
  let failures = ref 0 in
  List.iter
    (fun stm ->
      List.iter
        (fun cm ->
          Cm.install { base with Stm_intf.cm };
          if not (run_one stm ~keys:Uniform ~threads ~seconds) then
            incr failures)
        cms)
    stms;
  Cm.install base;
  !failures

(* Overload run: returns the number of STMs that failed the audit. *)
let overload ~stms ~threads ~seconds ~theta =
  let pol = Stm_intf.current_policy () in
  Printf.printf
    "Overload: %.1fs per STM, threads=%d, theta=%.2f, deadline=%.1fms, \
     cm=%s, admission=%b, fallback=%b\n%!"
    seconds threads theta
    (float_of_int pol.Stm_intf.deadline_ns /. 1e6)
    (Cm.choice_name pol.Stm_intf.cm)
    pol.Stm_intf.admission pol.Stm_intf.fallback;
  let failed =
    List.filter
      (fun stm -> not (run_one stm ~keys:(Zipf theta) ~threads ~seconds))
      stms
  in
  List.iter
    (fun (k, v) -> Printf.printf "  overload counter %-22s %d\n%!" k v)
    (Cm.counters () @ if pol.Stm_intf.admission then Admission.counters () else []);
  List.length failed
