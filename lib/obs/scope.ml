(* A telemetry scope: the counters, histograms, phase accumulators and
   interned trace names of one concurrency control instance ("2PLSF",
   "TL2", "DBx-2PLSF", ...).

   Counters are split into a *current window* (reset together with the
   owner's [reset_stats], so per-benchmark breakdowns line up with its
   commit/abort counters) and a *cumulative* view (window + everything
   folded in by earlier resets) used by the end-of-run JSON dump.

   Phase accounting (DESIGN.md §12).  Each thread carries a per-attempt
   lock-wait scratch ([att_wait]): every completed lock-wait slow path
   adds its duration both to the corresponding wait phase and to the
   scratch.  When the attempt ends, [txn_commit]/[txn_abort] take the
   scratch and attribute [attempt duration - waits] to [Body] (the commit
   step, when timed, is carved out of that into [Commit]).  Conflictor
   waits and contention-management backoffs happen *between* attempts and
   feed their phases directly; [txn_abort] marks where the gap starts and
   [retry_start] charges whatever of it those waits did not cover (the
   retry decision, and any preemption there) to [Backoff], so the gaps
   tile too.  [Wasted_retry] additionally re-counts the
   whole duration of each aborted attempt; it overlaps the partition and
   is reported as a ratio, never summed with the rest. *)

type t = {
  name : string;
  conflict : Conflict.t; (* conflict cartography, gated on !Conflict.on *)
  abort_reasons : Padded.t array; (* indexed by Events.abort_reason_index *)
  events : Padded.t array; (* indexed by Events.event_index *)
  phases : Padded.t array; (* ns, indexed by Phase.index *)
  att_wait : Padded.t; (* per-attempt lock-wait ns scratch *)
  gap_t0 : Padded.t; (* end of the thread's last aborted attempt *)
  gap_mark : Padded.t; (* its between-attempt phase ns at that moment *)
  txn_ns_sum : Padded.t; (* exact total transaction ns (window) *)
  lock_wait_ns : Histogram.t;
  spin_iters : Histogram.t;
  txn_ns : Histogram.t;
  (* lifetime accumulators, folded into on [reset] (main thread only) *)
  life_aborts : int array;
  life_events : int array;
  life_phases : int array;
  mutable life_txn_ns_sum : int;
  life_lock_wait : int array;
  life_spins : int array;
  life_txn : int array;
  (* interned trace-event names *)
  trace_commit : int;
  trace_aborts : int array; (* per abort reason *)
  trace_lockwait_r : int;
  trace_lockwait_w : int;
  trace_conflictor : int;
  trace_fsync : int;
}

let registry_mutex = Mutex.create ()
let registry : t list ref = ref []

let create name =
  let sc =
    {
      name;
      conflict = Conflict.create name;
      abort_reasons =
        Array.init Events.num_abort_reasons (fun _ -> Padded.create ());
      events = Array.init Events.num_events (fun _ -> Padded.create ());
      phases = Array.init Phase.num_phases (fun _ -> Padded.create ());
      att_wait = Padded.create ();
      gap_t0 = Padded.create ();
      gap_mark = Padded.create ();
      txn_ns_sum = Padded.create ();
      lock_wait_ns = Histogram.create ();
      spin_iters = Histogram.create ();
      txn_ns = Histogram.create ();
      life_aborts = Array.make Events.num_abort_reasons 0;
      life_events = Array.make Events.num_events 0;
      life_phases = Array.make Phase.num_phases 0;
      life_txn_ns_sum = 0;
      life_lock_wait = Array.make Histogram.num_buckets 0;
      life_spins = Array.make Histogram.num_buckets 0;
      life_txn = Array.make Histogram.num_buckets 0;
      trace_commit = Tracer.intern (name ^ ":commit");
      trace_aborts =
        Array.of_list
          (List.map
             (fun r ->
               Tracer.intern (name ^ ":abort:" ^ Events.abort_reason_label r))
             Events.all_abort_reasons);
      trace_lockwait_r = Tracer.intern (name ^ ":lock-wait:r");
      trace_lockwait_w = Tracer.intern (name ^ ":lock-wait:w");
      trace_conflictor = Tracer.intern (name ^ ":conflictor-wait");
      trace_fsync = Tracer.intern (name ^ ":fsync-wait");
    }
  in
  Mutex.lock registry_mutex;
  registry := !registry @ [ sc ];
  Mutex.unlock registry_mutex;
  sc

let all () = !registry
let name sc = sc.name
let find n = List.find_opt (fun sc -> String.equal sc.name n) !registry
let conflict sc = sc.conflict

(* ---- recording (call sites gate on !Telemetry.on) ---- *)

let event sc ~tid e = Padded.incr sc.events.(Events.event_index e) ~tid
let abort sc ~tid r = Padded.incr sc.abort_reasons.(Events.abort_reason_index r) ~tid

let phase_add sc ~tid ph ns =
  if ns > 0 then Padded.add sc.phases.(Phase.index ph) ~tid ns

(* Read-and-clear the thread's per-attempt lock-wait scratch. *)
let att_wait_take sc ~tid =
  let v = Padded.get sc.att_wait ~tid in
  if v <> 0 then Padded.add sc.att_wait ~tid (-v);
  v

let lock_wait sc ~lock ~tid ~write ~t0_ns ~spins ~acquired =
  let dur = Telemetry.now_ns () - t0_ns in
  if !Conflict.on then Conflict.record_wait sc.conflict ~tid ~lock ~write ~ns:dur;
  Histogram.record sc.lock_wait_ns ~tid dur;
  Histogram.record sc.spin_iters ~tid spins;
  phase_add sc ~tid
    (if write then Phase.Write_lock_wait else Phase.Read_lock_wait)
    dur;
  if dur > 0 then Padded.add sc.att_wait ~tid dur;
  if acquired then
    event sc ~tid (if write then Events.Write_lock_waited else Events.Read_lock_waited);
  if !Telemetry.trace_on then
    Tracer.span ~tid
      ~name:(if write then sc.trace_lockwait_w else sc.trace_lockwait_r)
      ~ts_ns:t0_ns ~dur_ns:dur

(* Per-thread nanoseconds already charged to the phases that feed the gap
   between two attempts. *)
let between_attempts sc ~tid =
  Padded.get sc.phases.(Phase.index Phase.Conflictor_wait) ~tid
  + Padded.get sc.phases.(Phase.index Phase.Backoff) ~tid

let padded_set p ~tid v = Padded.add p ~tid (v - Padded.get p ~tid)

let txn_commit sc ~tid ~txn_t0_ns ~att_t0_ns ?commit_t0_ns () =
  let now = Telemetry.now_ns () in
  Histogram.record sc.txn_ns ~tid (now - txn_t0_ns);
  Padded.add sc.txn_ns_sum ~tid (Stdlib.max 0 (now - txn_t0_ns));
  let waits = att_wait_take sc ~tid in
  (match commit_t0_ns with
  | Some c0 ->
      phase_add sc ~tid Phase.Body (c0 - att_t0_ns - waits);
      phase_add sc ~tid Phase.Commit (now - c0)
  | None -> phase_add sc ~tid Phase.Body (now - att_t0_ns - waits));
  if !Telemetry.trace_on then
    Tracer.span ~tid ~name:sc.trace_commit ~ts_ns:att_t0_ns
      ~dur_ns:(now - att_t0_ns)

let txn_abort sc ?(aborter = -1) ?(lock = -1) ~tid ~att_t0_ns reason =
  abort sc ~tid reason;
  let now = Telemetry.now_ns () in
  let dur = now - att_t0_ns in
  if !Conflict.on then
    Conflict.edge sc.conflict ~victim:tid ~aborter ~lock ~wasted_ns:dur reason;
  let waits = att_wait_take sc ~tid in
  phase_add sc ~tid Phase.Body (dur - waits);
  phase_add sc ~tid Phase.Wasted_retry dur;
  padded_set sc.gap_t0 ~tid now;
  padded_set sc.gap_mark ~tid (between_attempts sc ~tid);
  if !Telemetry.trace_on then
    Tracer.span ~tid
      ~name:sc.trace_aborts.(Events.abort_reason_index reason)
      ~ts_ns:att_t0_ns ~dur_ns:dur

let retry_start sc ~tid =
  let now = Telemetry.now_ns () in
  let waited = between_attempts sc ~tid - Padded.get sc.gap_mark ~tid in
  phase_add sc ~tid Phase.Backoff (now - Padded.get sc.gap_t0 ~tid - waited);
  now

(* One completed WAL durability wait.  Feeds the phase *and* the
   per-attempt scratch: the wait happens inside the attempt window (in
   DBx, between lock release and the commit ack), so [txn_commit]'s
   Body-by-subtraction must exclude it just like lock waits. *)
let fsync_wait sc ~tid ~t0_ns =
  let dur = Telemetry.now_ns () - t0_ns in
  phase_add sc ~tid Phase.Fsync_wait dur;
  if dur > 0 then Padded.add sc.att_wait ~tid dur;
  if !Telemetry.trace_on then
    Tracer.span ~tid ~name:sc.trace_fsync ~ts_ns:t0_ns ~dur_ns:dur

let conflictor_wait sc ~tid ~t0_ns =
  event sc ~tid Events.Conflictor_wait;
  let dur = Telemetry.now_ns () - t0_ns in
  phase_add sc ~tid Phase.Conflictor_wait dur;
  if !Telemetry.trace_on then
    Tracer.span ~tid ~name:sc.trace_conflictor ~ts_ns:t0_ns ~dur_ns:dur

(* ---- reading ---- *)

let abort_counts sc =
  List.map
    (fun r ->
      ( Events.abort_reason_label r,
        Padded.sum sc.abort_reasons.(Events.abort_reason_index r) ))
    Events.all_abort_reasons

let event_counts sc =
  List.map
    (fun e ->
      (Events.event_label e, Padded.sum sc.events.(Events.event_index e)))
    Events.all_events

let phase_counts sc =
  List.map
    (fun ph -> (Phase.label ph, Padded.sum sc.phases.(Phase.index ph)))
    Phase.all

let txn_total_ns sc = Padded.sum sc.txn_ns_sum

let aborts_total sc =
  Array.fold_left (fun acc p -> acc + Padded.sum p) 0 sc.abort_reasons

(* Current-window abort count of one thread — the reconciliation target
   for the conflict matrix's per-victim edge totals (DESIGN.md §13). *)
let aborts_of_tid sc ~tid =
  Array.fold_left (fun acc p -> acc + Padded.get p ~tid) 0 sc.abort_reasons

(* Gauges for the live monitor: per active scope, the hottest lock, its
   share of attributed ns (percent) and the edge total. *)
let conflict_gauges () =
  List.concat_map
    (fun sc ->
      let c = sc.conflict in
      let total = Conflict.total_weight_ns c in
      let edges = Conflict.edges_total c in
      if total = 0 && edges = 0 then []
      else
        let hot =
          match Conflict.top ~n:1 c with
          | h :: _ when total > 0 ->
              [
                (sc.name ^ ".hot_lock", h.Conflict.lock);
                (sc.name ^ ".hot_lock_pct", 100 * h.Conflict.weight_ns / total);
              ]
          | _ -> []
        in
        hot @ [ (sc.name ^ ".conflict_edges", edges) ])
    (all ())

let add_window l r = List.map2 (fun (k, v) (_, v') -> (k, v + v')) l r

let cumulative_abort_counts sc =
  add_window (abort_counts sc)
    (List.map
       (fun r ->
         ( Events.abort_reason_label r,
           sc.life_aborts.(Events.abort_reason_index r) ))
       Events.all_abort_reasons)

let cumulative_event_counts sc =
  add_window (event_counts sc)
    (List.map
       (fun e -> (Events.event_label e, sc.life_events.(Events.event_index e)))
       Events.all_events)

let cumulative_phase_counts sc =
  add_window (phase_counts sc)
    (List.map
       (fun ph -> (Phase.label ph, sc.life_phases.(Phase.index ph)))
       Phase.all)

let cumulative_txn_total_ns sc = sc.life_txn_ns_sum + txn_total_ns sc

let merged_hist life hist =
  let cur = Histogram.snapshot hist in
  Array.mapi (fun i v -> v + life.(i)) cur

let hist_lock_wait sc = merged_hist sc.life_lock_wait sc.lock_wait_ns
let hist_spins sc = merged_hist sc.life_spins sc.spin_iters
let hist_txn sc = merged_hist sc.life_txn sc.txn_ns
let window_hist_lock_wait sc = Histogram.snapshot sc.lock_wait_ns
let window_hist_txn sc = Histogram.snapshot sc.txn_ns

(* ---- reset (main thread, writers quiescent) ---- *)

let reset sc =
  List.iteri
    (fun i (_, v) -> sc.life_aborts.(i) <- sc.life_aborts.(i) + v)
    (abort_counts sc);
  List.iteri
    (fun i (_, v) -> sc.life_events.(i) <- sc.life_events.(i) + v)
    (event_counts sc);
  List.iteri
    (fun i (_, v) -> sc.life_phases.(i) <- sc.life_phases.(i) + v)
    (phase_counts sc);
  sc.life_txn_ns_sum <- sc.life_txn_ns_sum + txn_total_ns sc;
  let fold life h =
    let cur = Histogram.snapshot h in
    Array.iteri (fun i v -> life.(i) <- life.(i) + v) cur
  in
  fold sc.life_lock_wait sc.lock_wait_ns;
  fold sc.life_spins sc.spin_iters;
  fold sc.life_txn sc.txn_ns;
  Array.iter Padded.reset sc.abort_reasons;
  Array.iter Padded.reset sc.events;
  Array.iter Padded.reset sc.phases;
  Padded.reset sc.att_wait;
  Padded.reset sc.txn_ns_sum;
  Histogram.reset sc.lock_wait_ns;
  Histogram.reset sc.spin_iters;
  Histogram.reset sc.txn_ns

let reset_all () = List.iter reset (all ())
