(* The closed loop: worker domains alternate work phases with
   slices of the reference kernel, in lock step, so that every work
   phase is bracketed by two measurements of the host's current speed.

   One run is [reps] set-ups (build, prefill, warm-up), then epochs of
   [work_ns] of operations each until [seconds] have passed.  Worker 0
   runs on the main domain and is the leader: it builds, snapshots
   process-wide counters at phase edges and keeps the epoch log.  In a
   traced run odd epochs call the traced instance, so traced and
   untraced throughput are measured under the same host conditions. *)

open Bigarray

let now = Util.Clock.now_ns
let buf_capacity = 1 lsl 20
let failed_sample = 1 lsl 50  (* a failed operation's latency: above every percentile *)

type instance = {
  prepare : int -> bool -> unit;  (* worker, traced: draw the next input, untimed *)
  op : int -> bool -> unit;  (* the timed public operation *)
  counters : unit -> int array;  (* program counters, read in quiescence *)
  check : unit -> (string * bool * string) list;  (* name, passed, detail *)
  teardown : unit -> unit;
}

type failure = Starved | Deadline | Degraded

let classify = function
  | Stm_intf.Starved _ -> Some Starved
  | Stm_intf.Deadline_exceeded _ -> Some Deadline
  | Stm_intf.Degraded_read_only _ -> Some Degraded
  | _ -> None

(* ---- A spinning barrier -------------------------------------------- *)

type barrier = { parties : int; arrived : int Atomic.t; round : int Atomic.t }

let barrier parties = { parties; arrived = Atomic.make 0; round = Atomic.make 0 }

let await b =
  let r = Atomic.get b.round in
  if Atomic.fetch_and_add b.arrived 1 = b.parties - 1 then begin
    Atomic.set b.arrived 0;
    Atomic.incr b.round
  end
  else
    while Atomic.get b.round = r do
      Domain.cpu_relax ()
    done

(* ---- Per-worker state ---------------------------------------------- *)

type worker = {
  buf : (int, int_elt, c_layout) Array1.t;  (* this epoch's latencies, ns *)
  mutable n : int;
  mutable t_start : int;
  mutable t_stop : int;
  mutable failed : int;
  fails : int array;  (* by [failure], over untraced epochs *)
  mutable minor_words : float;  (* untraced epochs *)
}

let make_worker () =
  {
    buf = Array1.create int c_layout buf_capacity;
    n = 0;
    t_start = 0;
    t_stop = 0;
    failed = 0;
    fails = Array.make 3 0;
    minor_words = 0.;
  }

let fail_index = function Starved -> 0 | Deadline -> 1 | Degraded -> 2

(* ---- What a run produces -------------------------------------------- *)

type epoch = {
  traced : bool;
  ops : int;
  e_failed : int;
  dur_ns : int;
  cpu_s : float;  (* process CPU time over the work phase *)
  rate : float;  (* host rate over the slices before and after *)
  parts : float array;  (* the kernel parts' mean speeds over those slices *)
  deltas : int array;  (* [counters] over the work phase *)
}

type result = {
  epochs : epoch list;  (* oldest first *)
  setup_raw_s : float array;
  setup_rate : float array;
  workers_st : worker array;
  raw : Pstats.hist;  (* every untraced latency, ns *)
  norm : Pstats.hist;  (* the same, scaled to the reference host *)
  final : instance;
  gc_before : Gc.stat;
  gc_after : Gc.stat;
  wall_s : float;
}

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let run ~workers ~mix ~seconds ~work_ns ~trace ~reps ~warm_ops ~process_start
    ~(build : rep:int -> instance) =
  let b = barrier workers in
  let ws = Array.init workers (fun _ -> make_worker ()) in
  let nparts = Array.length Refkernel.ref_parts in
  let rates = Array.make_matrix workers nparts 0. in
  let prev_rates = Array.make_matrix workers nparts 0. in
  (* Each part's speed, averaged over every worker's last two slices. *)
  let mean_parts () =
    Array.init nparts (fun k ->
        let s = ref 0. in
        for i = 0 to workers - 1 do
          s := !s +. rates.(i).(k) +. prev_rates.(i).(k)
        done;
        !s /. float (2 * workers))
  in
  let mean_rate () = Refkernel.combine ~mix (mean_parts ()) in
  let kernel i =
    await b;
    prev_rates.(i) <- rates.(i);
    rates.(i) <- Refkernel.slice ();
    await b
  in
  let raw = Pstats.hist_create () and norm = Pstats.hist_create () in
  (* The leader files every worker's latencies of the epoch just ended,
     each also scaled by the host speed measured around that epoch. *)
  let record_latencies ~rate =
    let s = Pstats.speed ~rate ~ref_rate:Refkernel.ref_rate in
    Array.iter
      (fun w ->
        for j = 0 to w.n - 1 do
          let v = Array1.unsafe_get w.buf j in
          Pstats.hist_add raw v;
          Pstats.hist_add norm (if v = failed_sample then v else int_of_float (float v *. s))
        done)
      ws
  in
  let inst = ref None in
  let get () = Option.get !inst in
  let setup_raw = Array.make reps 0. and setup_rate = Array.make reps 0. in
  let epochs = ref [] in
  let stop = Atomic.make false in
  let gc_before = ref (Gc.quick_stat ()) in
  let meas_start = ref 0 in
  let trace_accs = Array.init workers (fun _ -> Trace.create ()) in
  let body i =
    Trace.bind trace_accs.(i);
    let w = ws.(i) in
    let one traced =
      let inst = get () in
      inst.prepare i traced;
      let t0 = now () in
      let lat =
        match inst.op i traced with
        | () -> now () - t0
        | exception e -> (
            match classify e with
            | Some f ->
                w.failed <- w.failed + 1;
                if not traced then w.fails.(fail_index f) <- w.fails.(fail_index f) + 1;
                failed_sample
            | None -> raise e)
      in
      if w.n < buf_capacity then begin
        Array1.unsafe_set w.buf w.n lat;
        w.n <- w.n + 1
      end
    in
    (* Set-up, [reps] times; the last instance is measured.  The first
       set-up also counts the time from process start to the first kernel
       slice (domain spawn, argument parsing). *)
    let before_first_slice = now () - process_start in
    for r = 0 to reps - 1 do
      if i = 0 then begin
        Option.iter (fun x -> x.teardown ()) !inst;
        inst := None;
        Gc.full_major ()
      end;
      kernel i;
      let t0 = now () in
      if i = 0 then inst := Some (build ~rep:r);
      await b;
      for _ = 1 to warm_ops do
        one false;
        if trace then one true
      done;
      w.n <- 0;
      w.failed <- 0;
      Array.fill w.fails 0 3 0;
      await b;
      if i = 0 then
        setup_raw.(r) <-
          float (now () - t0 + if r = 0 then before_first_slice else 0) /. 1e9;
      kernel i;
      if i = 0 then setup_rate.(r) <- mean_rate ()
    done;
    (* Counters and spans cover the measured epochs only. *)
    trace_accs.(i) <- Trace.create ();
    Trace.bind trace_accs.(i);
    if i = 0 then begin
      gc_before := Gc.quick_stat ();
      meas_start := now ()
    end;
    let e = ref 0 in
    while not (Atomic.get stop) do
      let traced = trace && !e land 1 = 1 in
      let c0 = if i = 0 then (get ()).counters () else [||] in
      let cpu0 = if i = 0 then process_cpu () else 0. in
      await b;
      let mw0 = Gc.minor_words () in
      w.t_start <- now ();
      let deadline = w.t_start + work_ns in
      while now () < deadline && w.n < buf_capacity do
        one traced
      done;
      w.t_stop <- now ();
      if not traced then w.minor_words <- w.minor_words +. (Gc.minor_words () -. mw0);
      await b;
      let summary =
        if i = 0 then begin
          let cpu = process_cpu () -. cpu0 in
          Some (cpu, Array.map2 ( - ) ((get ()).counters ()) c0)
        end
        else None
      in
      kernel i;
      (match summary with
      | Some (cpu_s, deltas) ->
          let parts = mean_parts () in
          let rate = Refkernel.combine ~mix parts in
          if not traced then record_latencies ~rate;
          let ops = Array.fold_left (fun s w -> s + w.n) 0 ws in
          let e_failed = Array.fold_left (fun s w -> s + w.failed) 0 ws in
          let t0 = Array.fold_left (fun m w -> min m w.t_start) max_int ws in
          let t1 = Array.fold_left (fun m w -> max m w.t_stop) 0 ws in
          epochs :=
            { traced; ops; e_failed; dur_ns = t1 - t0; cpu_s; rate; parts; deltas } :: !epochs;
          Array.iter
            (fun w ->
              w.n <- 0;
              w.failed <- 0)
            ws;
          if now () - !meas_start >= seconds * 1_000_000_000 then Atomic.set stop true
      | None -> ());
      incr e;
      await b
    done
  in
  let others = List.init (workers - 1) (fun k -> Domain.spawn (fun () -> body (k + 1))) in
  body 0;
  List.iter Domain.join others;
  let wall_s = float (now () - !meas_start) /. 1e9 in
  ( {
      epochs = List.rev !epochs;
      setup_raw_s = setup_raw;
      setup_rate;
      workers_st = ws;
      raw;
      norm;
      final = get ();
      gc_before = !gc_before;
      gc_after = Gc.quick_stat ();
      wall_s;
    },
    trace_accs )
